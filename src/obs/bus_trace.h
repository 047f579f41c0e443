// Bus-transaction tracing for refined specifications.
//
// A refined model's behaviour "on the buses" — the paper's Section 5 yard-
// stick — is encoded entirely in generated signal activity: four-phase
// start/done handshakes per transfer and req/ack arbitration per master.
// BusTracer reconstructs that protocol level from raw slot events:
//
//   * Buses, masters and signal roles come from the refiner's naming
//     contract as decoded by analysis::Context's BusTopology: any stem B
//     with the complete bundle B_start/B_done/B_rd/B_wr/B_addr/B_data
//     (refine/protocol.h's bus_naming) is a bus, and B_req_<M>/B_ack_<M>
//     pairs name its masters in arbiter priority order.
//   * The (address -> variable) map is the Context's serve-loop decode: the
//     read and write cases of every recognized slave port, the same decode
//     the static verifier's SA030-SA032 check. A master-side branch on an
//     address serves nothing and maps nothing. No BusPlan or AddressMap is
//     needed, which is what lets `specsyn simulate refined.spec --trace`
//     work on a bare .spec file.
//   * At run time the tracer follows edges: req rise opens a transaction
//     (request_time), ack rise grants it (grant_latency), each start/done
//     handshake is one transfer (beat), req fall closes the tenure. On a
//     single-master bus there is no req/ack; each handshake is its own
//     transaction, attributed to the behavior that scheduled the start
//     pulse.
//
// Per-bus counters maintained along the way: busy cycles (a transfer in
// flight) for utilization, contention (master-cycles spent req-high but
// ungranted — includes the arbiter's own service latency, so any arbitrated
// bus with traffic shows nonzero contention), grants per master, and a
// log2-bucketed histogram of handshake latencies (start rise -> done rise).
//
//   Simulator sim(refined);            // any execution tier
//   BusTracer tracer(refined);
//   sim.add_slot_observer(&tracer);
//   SimResult r = sim.run();
//   MetricsReport m = tracer.metrics();   // obs/metrics.h
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "refine/protocol.h"
#include "sim/simulator.h"

namespace specsyn {

namespace analysis {
class Context;
}  // namespace analysis

/// One decoded bus transaction: a tenure on an arbitrated bus (req rise to
/// req fall, covering 1..N transfers) or a single start/done handshake on an
/// unarbitrated bus. Times are simulation cycles.
struct BusTransaction {
  uint32_t bus = 0;                       ///< index into BusTracer::buses()
  int32_t master = -1;                    ///< index into Bus::masters, -1 = sole master
  uint32_t master_behavior = UINT32_MAX;  ///< interned behavior id, or UINT32_MAX
  uint64_t addr = 0;                      ///< bus address of the first beat
  bool is_read = false;                   ///< direction of the first beat
  bool has_addr = false;                  ///< false until the first beat starts
  uint32_t beats = 0;                     ///< start/done handshakes in the tenure
  uint64_t request_time = 0;              ///< req rise (arbitrated) or start rise
  uint64_t grant_time = 0;                ///< ack rise; == request_time unarbitrated
  uint64_t end_time = 0;                  ///< req fall / done fall
  uint64_t transfer_cycles = 0;           ///< sum of start-rise..done-fall windows
  bool complete = false;                  ///< closed before the run ended

  [[nodiscard]] uint64_t grant_latency() const {
    return grant_time - request_time;
  }
};

/// Handshake-latency histogram: log2 buckets of (done rise - start rise),
/// upper bounds 1, 2, 4, 8, ..., last bucket open-ended.
inline constexpr size_t kLatencyBuckets = 8;
[[nodiscard]] uint64_t latency_bucket_bound(size_t bucket);

class BusTracer : public SlotObserver {
 public:
  struct Master {
    std::string name;          ///< identity from <bus>_req_<name>
    uint64_t grants = 0;       ///< ack rising edges
    uint64_t wait_cycles = 0;  ///< cycles req high but ack low (contention)
    uint64_t grant_latency_sum = 0;
    uint64_t grant_latency_max = 0;
  };

  struct Bus {
    std::string name;
    std::vector<Master> masters;  ///< empty on unarbitrated buses
    uint64_t transfers = 0;       ///< start/done handshakes
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t busy_cycles = 0;     ///< cycles a handshake was in flight
    std::array<uint64_t, kLatencyBuckets> latency_hist{};

    /// Total master-cycles spent waiting for a grant.
    [[nodiscard]] uint64_t contention_cycles() const;
    /// busy_cycles / end_time, as a percentage (0 when the run is empty).
    [[nodiscard]] double utilization_pct(uint64_t end_time) const;
  };

  /// Reads the buses, masters, signal roles and slave address map that
  /// `ctx` decoded. Its spec must be the one simulated; the tracer keeps no
  /// reference to either.
  explicit BusTracer(const analysis::Context& ctx);
  /// Same, through a temporary Context over `spec`.
  explicit BusTracer(const Specification& spec);

  // SlotObserver
  void on_bind(const Binding& b) override;
  void on_signal_commit(uint32_t slot, uint64_t time, uint64_t value) override;
  void on_signal_schedule(uint32_t slot, uint32_t behavior, uint64_t time,
                          uint64_t value) override;
  void on_run_end(uint64_t end_time) override;

  [[nodiscard]] const std::vector<Bus>& buses() const { return buses_; }
  [[nodiscard]] const std::vector<BusTransaction>& transactions() const {
    return transactions_;
  }
  /// Final simulation time (0 until the run ends).
  [[nodiscard]] uint64_t end_time() const { return end_time_; }

  /// Variable stored at bus address `addr` per the recovered slave address
  /// map, or empty when unknown.
  [[nodiscard]] const std::string& var_at(uint64_t addr) const;

  /// Spec-unique behavior name for an event's interned id ("" for
  /// UINT32_MAX). Valid after on_bind.
  [[nodiscard]] std::string behavior_name(uint32_t id) const;

  /// Per-bus counter samples for trace export: (time, value) change points.
  [[nodiscard]] const std::vector<std::pair<uint64_t, uint32_t>>& busy_samples(
      size_t bus) const {
    return rt_[bus].busy_samples;
  }
  [[nodiscard]] const std::vector<std::pair<uint64_t, uint32_t>>&
  waiting_samples(size_t bus) const {
    return rt_[bus].waiting_samples;
  }

 private:
  /// Mutable per-bus decoder state, index-parallel with buses_.
  struct MasterState {
    bool waiting = false;
    bool granted = false;
    uint64_t waiting_since = 0;
    uint32_t last_req_behavior = UINT32_MAX;
    int64_t open_txn = -1;  // index into transactions_, -1 = none
  };
  struct BusState {
    uint64_t addr_val = 0;
    bool rd_val = false;
    bool in_transfer = false;       // start rise seen, done fall pending
    uint64_t transfer_start = 0;    // time of the open transfer's start rise
    int32_t active_master = -1;     // master currently holding the grant
    int64_t open_txn = -1;          // unarbitrated: open handshake txn
    uint32_t last_start_behavior = UINT32_MAX;
    uint32_t waiting_count = 0;
    std::vector<MasterState> masters;
    std::vector<std::pair<uint64_t, uint32_t>> busy_samples;
    std::vector<std::pair<uint64_t, uint32_t>> waiting_samples;
  };

  void start_rise(uint32_t bus, uint64_t time);
  void done_edge(uint32_t bus, uint64_t time, bool rising);
  void req_edge(uint32_t bus, int32_t master, uint64_t time, bool rising);
  void ack_edge(uint32_t bus, int32_t master, uint64_t time, bool rising);

  std::vector<Bus> buses_;
  std::vector<BusState> rt_;
  std::vector<BusTransaction> transactions_;
  std::map<uint64_t, std::string> addr_to_var_;
  /// Signal *name* -> role, copied from the Context's topology; resolved to
  /// slots (slot_roles_) once at on_bind.
  std::map<std::string, BusTopology::SignalRole> name_roles_;
  std::vector<BusTopology::SignalRole> slot_roles_;
  /// Interned behavior id -> name, copied from the Program at bind time so
  /// lookups stay valid after the Simulator is destroyed.
  std::vector<std::string> behavior_names_;
  uint64_t end_time_ = 0;
};

}  // namespace specsyn
