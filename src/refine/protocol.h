// Bus protocol generation: the MST_send / MST_receive master procedures and
// the SLV-side server loops of Figure 5(c)/(d).
//
// A bus is a bundle of six signals (start, done, rd, wr, addr, data) plus,
// when the bus is arbitrated, one req/ack pair per master. Master-side
// transfers are emitted as procedures (two per (bus, master): read and
// write) so every rewritten variable access is a single `call`; slave-side
// transfers are emitted inline into the generated memory / bus-interface
// server loops.
//
// Two protocol styles are provided:
//  * FullHandshake — Figure 5(d): one 4-phase handshake per access, the data
//    bus is as wide as the widest variable.
//  * ByteSerial — 4-phase handshake on an 8-bit data bus; each access
//    transfers ceil(width/8) beats at consecutive byte addresses.
//
// Procedure signature (identical across styles so call sites are uniform):
//    proc <name>(a : addrT, beats : int8 [, v : wordT] [, out d : wordT])
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spec/specification.h"
#include "refine/types.h"

namespace specsyn {

/// The signal-naming contract of generated buses. Every bus `B` owns the
/// six-signal bundle `B_start/B_done/B_rd/B_wr/B_addr/B_data`; an arbitrated
/// bus additionally owns one `B_req_<master>`/`B_ack_<master>` pair per
/// master (see arbiter_gen.h). These suffixes are the *only* coupling between
/// the refiner's generated protocols and the layers that read them back:
/// BusTopology (below) decodes them once for the static verifier and the
/// bus tracer (src/obs/bus_trace.h), which reconstructs buses, masters and
/// transactions from signal names alone — change them here and both sides
/// follow.
namespace bus_naming {
inline constexpr const char* kStart = "_start";
inline constexpr const char* kDone = "_done";
inline constexpr const char* kRd = "_rd";
inline constexpr const char* kWr = "_wr";
inline constexpr const char* kAddr = "_addr";
inline constexpr const char* kData = "_data";
/// Arbitration lines embed the master identity: <bus>_req_<master>.
inline constexpr const char* kReq = "_req_";
inline constexpr const char* kAck = "_ack_";
}  // namespace bus_naming

/// The naming contract of control refinement (control_refine.h, Figure 4):
/// a behavior `B` moved to another component leaves a `B_CTRL` stub in its
/// parent and runs as a `B_NEW` server there. The two handshake over the
/// `B_start`/`B_done` pair, spelled with bus_naming's kStart/kDone.
namespace control_naming {
inline constexpr const char* kStub = "_CTRL";
inline constexpr const char* kServer = "_NEW";
}  // namespace control_naming

/// Signal names of one bus's bundle.
struct BusSignals {
  std::string start, done, rd, wr, addr, data;

  [[nodiscard]] static BusSignals of(const std::string& bus);
};

/// What one declared signal means under the bus_naming contract.
enum class BusSignalRole : uint8_t {
  None, Start, Done, Rd, Wr, Addr, Data, Req, Ack
};

/// The bus structure recoverable from a specification's signal declarations
/// alone: any stem with the complete six-signal bundle is a bus, and its
/// `<bus>_req_<master>`/`<bus>_ack_<master>` pairs name the masters in
/// arbiter priority order (declaration order). Shared by the observability
/// layer (obs/bus_trace) and the static verifier (src/analysis) so the two
/// can never disagree about what the refiner's names mean.
struct BusTopology {
  struct SignalRole {
    BusSignalRole role = BusSignalRole::None;
    uint32_t bus = 0;     ///< index into `buses`
    int32_t master = -1;  ///< Req/Ack: index into the bus's `masters`
  };
  struct BusEntry {
    std::string name;
    std::vector<std::string> masters;  ///< empty on unarbitrated buses
  };

  std::vector<BusEntry> buses;
  /// signal name -> role, for every signal that is part of some bundle.
  std::map<std::string, SignalRole> roles;
  /// Stems declaring exactly `<stem>_start` + `<stem>_done` and no other
  /// bundle member: the control handshake pairs of moved behaviors
  /// (control_refine's `<B>_start`/`<B>_done`).
  std::vector<std::string> control_pairs;
  /// Stems declaring some but not all of the six bundle suffixes (and that
  /// are not plain start/done control pairs): likely renamed or half-deleted
  /// buses. stem -> names of the missing members.
  std::map<std::string, std::vector<std::string>> partial_stems;

  /// Scans the declared signals of `spec` (specification level and every
  /// behavior).
  [[nodiscard]] static BusTopology discover(const Specification& spec);

  /// Role of `signal`, or a None entry.
  [[nodiscard]] SignalRole role_of(const std::string& signal) const;
};

/// Per-master arbitration line names on an arbitrated bus.
[[nodiscard]] std::string req_signal(const std::string& bus,
                                     const std::string& master);
[[nodiscard]] std::string ack_signal(const std::string& bus,
                                     const std::string& master);

/// One variable served by a slave loop, at the AddressMap's base address
/// and beat count (byte-serial beats occupy consecutive addresses).
struct SlaveVar {
  std::string name;
  uint64_t base_addr = 0;
  Type type = Type::u32();
  uint64_t beats = 1;
};

class ProtocolGen {
 public:
  /// `addr_t`/`data_t` from the AddressMap; `word_t` is the value width used
  /// by master procedures (the widest variable type).
  ProtocolGen(ProtocolStyle style, Type addr_t, Type data_t, Type word_t);

  [[nodiscard]] ProtocolStyle style() const { return style_; }

  /// Declares the start/done/rd/wr/addr/data signals of `bus`.
  void declare_bus_signals(const std::string& bus,
                           std::vector<SignalDecl>& out) const;

  /// Canonical procedure names. `master` is empty on unarbitrated buses.
  [[nodiscard]] static std::string read_proc_name(const std::string& bus,
                                                  const std::string& master);
  [[nodiscard]] static std::string write_proc_name(const std::string& bus,
                                                   const std::string& master);

  /// proc <name>(a : addrT, beats : int8, out d : wordT)
  /// When `req`/`ack` are non-empty the transfer is wrapped in a
  /// req/ack bus acquisition (Figure 7's master side).
  [[nodiscard]] Procedure master_read_proc(const std::string& name,
                                           const std::string& bus,
                                           const std::string& req,
                                           const std::string& ack) const;

  /// proc <name>(a : addrT, beats : int8, v : wordT)
  [[nodiscard]] Procedure master_write_proc(const std::string& name,
                                            const std::string& bus,
                                            const std::string& req,
                                            const std::string& ack) const;

  /// The body of a memory server: an infinite loop serving one transaction
  /// per start pulse against the given variables (Figure 5(c)'s Memory
  /// behavior). The returned statements form the complete leaf body.
  [[nodiscard]] StmtList slave_server_loop(const std::string& bus,
                                           const std::vector<SlaveVar>& vars) const;

 private:
  StmtList acquire(const std::string& req, const std::string& ack) const;
  StmtList release(const std::string& req, const std::string& ack) const;

  ProtocolStyle style_;
  Type addr_t_;
  Type data_t_;
  Type word_t_;
};

}  // namespace specsyn
