// Shared analysis context for the static refinement verifier.
//
// One walk over a Specification recovers everything the checkers in
// analysis/verifier.h consume, so adding a checker never adds a traversal:
//
//   * a behavior concurrency map (two behaviors can be simultaneously active
//     iff their lowest common ancestor is a Concurrent composite and neither
//     is an ancestor of the other),
//   * a signal def/use index (which behaviors write / wait on / read each
//     signal, and which literal levels they drive),
//   * master-side facts per (behavior, bus): handshake drive completeness,
//     req/ack acquisition, and every recovered <bus>_addr drive (literal
//     point, ByteSerial literal range, or statically unresolvable),
//   * slave ports: serve loops recognized by the Figure 5(c)/8 shape
//     `loop { wait <bus>_start [&& addr match]; ... done pulse }`, with
//     their decoded (address -> variable) read/write cases,
//   * a variable access index for race checking, where accesses inside a
//     recognized serve loop are "bus-mediated", and the race relation over
//     it (SA020's predicate, which schedule exploration prunes on),
//   * a bus hold graph for deadlock checking: edge A -> B when some thread
//     initiates a transfer on B while holding A (req asserted on A, or
//     serving A's slave side mid-handshake).
//
// The walk follows Call statements into procedure bodies with the call's
// in-arguments bound, so specs refined with --no-inline (shared MST_*
// procedures) analyze identically to fully inlined ones.
//
// Every variable, signal and bus-role name resolves through one symbol
// table built per spec, so the walk makes one hash lookup per name
// occurrence and visits expressions in place. Hierarchy questions (parent,
// path, concurrency) read the context's SpecIndex (spec/index.h), so the
// specification must outlive the context and must not change under it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "refine/protocol.h"
#include "spec/index.h"

namespace specsyn::analysis {

/// Inclusive address interval.
struct AddrRange {
  uint64_t lo = 0;
  uint64_t hi = 0;

  [[nodiscard]] bool contains(uint64_t a) const { return a >= lo && a <= hi; }
  [[nodiscard]] bool intersects(const AddrRange& o) const {
    return lo <= o.hi && o.lo <= hi;
  }
};

/// One recovered drive of a bus's address lines by a master.
struct MasterAccess {
  const Behavior* behavior = nullptr;
  uint32_t bus = 0;
  bool resolved = false;  ///< false: forwarded/computed address (no range)
  AddrRange range;        ///< single address unless a ByteSerial beat loop
  bool is_read = false;   ///< direction from the preceding rd/wr drive
  bool is_write = false;  ///< both set when the direction is unknown
};

/// Per-(behavior, bus) master-side handshake facts.
struct MasterFacts {
  const Behavior* behavior = nullptr;
  uint32_t bus = 0;
  bool drives_start_1 = false, drives_start_0 = false;
  bool waits_done = false;
  bool drives_addr = false;
  bool drives_rd = false, drives_wr = false;
  /// Arbitration acquisition on this bus: master indices whose req line this
  /// behavior asserts/releases, and whose ack line it waits on.
  std::set<int32_t> req_asserted, req_released, ack_waited;
};

/// Per-(behavior, bus) slave-side facts. Decode information is only present
/// when the serve-loop shape was recognized.
struct SlavePort {
  const Behavior* behavior = nullptr;
  uint32_t bus = 0;
  bool drives_done_1 = false, drives_done_0 = false;
  bool waits_start = false;
  bool serve_loop = false;     ///< shape recognized; decode fields valid
  bool full_range = false;     ///< no address restriction in the trigger
  std::vector<AddrRange> match;  ///< trigger address windows (unless full)
  /// Decoded cases inside the rd/wr branches: address -> served variable.
  std::map<uint64_t, std::string> read_cases, write_cases;
  /// No per-address cases: a forwarding interface serving its whole window.
  [[nodiscard]] bool forwarder() const {
    return serve_loop && read_cases.empty() && write_cases.empty();
  }
  /// True when the port's trigger window covers `addr`.
  [[nodiscard]] bool window_covers(uint64_t addr) const;
};

/// Signal def/use summary.
struct SignalUse {
  std::vector<const Behavior*> writers;       ///< unique, first-write order
  std::vector<const Behavior*> readers;       ///< unique (waits and exprs)
  std::vector<const Behavior*> waiters;       ///< unique, wait conditions only
  std::set<uint64_t> literal_levels;          ///< literal values driven
  /// Literal levels each behavior drives (for handshake shape checks).
  std::map<const Behavior*, std::set<uint64_t>> levels_by_writer;
};

/// One variable access for the race checker.
struct VarAccess {
  const Behavior* behavior = nullptr;
  bool is_write = false;
  /// Inside a recognized slave serve loop: serialized by the bus handshake
  /// (or, for multi-port memories, an explicit hardware port).
  bool bus_mediated = false;
};

/// Two accesses to one variable that may race (the SA020 predicate): their
/// behaviors are concurrent, at least one access writes, and they are not
/// both bus-mediated (a bus, or a multi-port memory's ports, serializes two
/// mediated accesses).
struct Race {
  const std::string* var = nullptr;  ///< key in Context::var_access()
  const VarAccess* a = nullptr;      ///< precedes `b` in the variable's list
  const VarAccess* b = nullptr;
  SpecIndex::Id a_id = SpecIndex::kNone;  ///< id of a->behavior
  SpecIndex::Id b_id = SpecIndex::kNone;  ///< id of b->behavior
};

/// Order-free key of a behavior-id pair: the smaller id in the high half.
[[nodiscard]] inline uint64_t behavior_pair(SpecIndex::Id x, SpecIndex::Id y) {
  return x < y ? uint64_t{x} << 32 | y : uint64_t{y} << 32 | x;
}

/// A `wait until` site, for satisfiability checking.
struct WaitSite {
  const Behavior* behavior = nullptr;
  const Expr* cond = nullptr;
};

class Context {
 public:
  explicit Context(const Specification& spec);
  // The symbol table points into the maps below: build a Context in place.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  Context(Context&&) = delete;
  Context& operator=(Context&&) = delete;

  [[nodiscard]] const Specification& spec() const { return index_.spec(); }
  [[nodiscard]] const BusTopology& topology() const { return topo_; }

  /// "SYS/PROC_top/B3_NEW"-style hierarchy path ("" for unknown behaviors).
  [[nodiscard]] std::string path_of(const Behavior* b) const;

  /// Parent in the hierarchy; nullptr for the top or unknown behaviors.
  [[nodiscard]] const Behavior* parent_of(const Behavior* b) const {
    return index_.parent_of(b);
  }

  [[nodiscard]] const std::vector<MasterFacts>& masters() const {
    return masters_;
  }
  [[nodiscard]] const std::vector<SlavePort>& slaves() const {
    return slaves_;
  }
  [[nodiscard]] const std::vector<MasterAccess>& accesses() const {
    return accesses_;
  }
  [[nodiscard]] const std::vector<WaitSite>& waits() const { return waits_; }
  [[nodiscard]] const std::map<std::string, SignalUse>& signal_use() const {
    return signal_use_;
  }
  [[nodiscard]] const std::map<std::string, std::vector<VarAccess>>&
  var_access() const {
    return var_access_;
  }
  /// Every racing access pair, grouped by variable in var_access() order and
  /// in list order within a variable; only the first pair of each
  /// (variable, behavior pair) is kept.
  [[nodiscard]] const std::vector<Race>& races() const { return races_; }
  /// Bus hold graph: edges_[a] = buses acquired while a is held.
  [[nodiscard]] const std::map<uint32_t, std::set<uint32_t>>& hold_edges()
      const {
    return hold_edges_;
  }
  /// Grant order of the arbiter driving `bus`'s ack lines: master indices in
  /// the order the priority chain tests them. Empty when no single arbiter
  /// if-chain was recognized.
  [[nodiscard]] std::vector<int32_t> arbiter_chain(uint32_t bus) const;

  /// Constant-folds `e` over declared initial values with the simulator's
  /// operator semantics (sim/value.h); returns false when any referenced
  /// name is unknown.
  [[nodiscard]] bool const_eval(const Expr& e, uint64_t& out) const;

 private:
  struct Scope;  // walker state, defined in context.cpp

  /// One declared variable and/or signal name.
  struct Symbol {
    std::string_view name;  ///< the declaration's own storage
    bool is_var = false;
    bool is_signal = false;
    uint64_t init = 0;  ///< first variable declaration's, else first signal's
    BusTopology::SignalRole role;
    /// Entries of signal_use_ / var_access_, made on first use (std::map
    /// nodes never move).
    SignalUse* use = nullptr;
    std::vector<VarAccess>* accesses = nullptr;
  };

  [[nodiscard]] Symbol* symbol(std::string_view name);
  [[nodiscard]] const Symbol* symbol(std::string_view name) const;
  [[nodiscard]] BusTopology::SignalRole role_of(std::string_view name) const;
  SignalUse& use_of(Symbol& sym);

  /// True when behaviors `a` and `b` can be simultaneously active.
  [[nodiscard]] bool concurrent(SpecIndex::Id a, SpecIndex::Id b) const;

  void walk_spec();
  void find_races();
  void walk_block(const StmtList& stmts, Scope& scope);
  void walk_stmt(const Stmt& s, Scope& scope);
  void note_signal_write(Symbol* sym, const Behavior* b, const Expr* value,
                         Scope& scope);
  void note_expr_reads(const Expr& e, Scope& scope);
  /// `sym` is the symbol of `name` (nullptr when undeclared); an out-parameter
  /// rename in scope takes precedence.
  void record_var_access(std::string_view name, Symbol* sym, bool is_write,
                         Scope& scope);
  MasterFacts& master_facts(const Behavior* b, uint32_t bus);
  SlavePort& slave_port(const Behavior* b, uint32_t bus);
  /// Recognizes the serve-loop trigger shape; on success fills a SlavePort
  /// and returns its index into slaves_, else SIZE_MAX.
  size_t try_serve_loop(const Stmt& loop, Scope& scope);
  void hold_acquire(uint32_t bus, Scope& scope);
  void close_open_accesses(Scope& scope);
  /// Resolves NameRefs through the scope's in-argument bindings.
  const Expr* resolve(const Expr& e, const Scope& scope) const;

  SpecIndex index_;
  BusTopology topo_;

  std::unordered_map<std::string_view, Symbol> symbols_;
  std::vector<std::string> bus_data_;  ///< `<bus>_data` per topology bus

  std::vector<MasterFacts> masters_;
  std::vector<SlavePort> slaves_;
  std::map<std::pair<const Behavior*, uint32_t>, size_t> master_index_;
  std::map<std::pair<const Behavior*, uint32_t>, size_t> slave_index_;
  std::vector<MasterAccess> accesses_;
  std::vector<WaitSite> waits_;
  std::map<std::string, SignalUse> signal_use_;
  std::map<std::string, std::vector<VarAccess>> var_access_;
  std::vector<Race> races_;
  std::map<uint32_t, std::set<uint32_t>> hold_edges_;
  /// bus -> (arbiter behavior, recognized grant chain).
  std::map<uint32_t, std::vector<int32_t>> arbiter_chains_;
};

}  // namespace specsyn::analysis
