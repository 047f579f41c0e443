// Discrete-event simulator for SpecLang specifications.
//
// Semantics:
//   * Every process executes one statement per scheduling step; a statement
//     costs one cycle, `delay N` costs max(N, 1).
//   * Signal assignments (`<=`) are scheduled and become visible one cycle
//     later — never within the statement that issued them. Commits at time T
//     precede process steps at T, so the immediately following statement
//     already observes the new value.
//   * `wait c` blocks until c evaluates nonzero; blocked processes are
//     re-evaluated whenever a signal named in c changes value.
//   * A Sequential composite runs children per its transition arcs; a
//     Concurrent composite forks one process per child and joins.
//   * Scheduling is deterministic: (time, seq) ordering, seq being the order
//     in which steps were scheduled; signal updates at time T commit before
//     any process step at T, in issue order.
//
// The simulator ends when the event queue drains (quiescent — the normal end
// state of refined specifications, whose memory/arbiter/interface server
// loops block forever on waits once the main control flow finishes), when the
// root process completes with no other runnable process, or at
// `max_cycles` (reported as MaxCycles; typically a deadlock or a livelock in
// the input).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/signal_table.h"
#include "spec/index.h"

namespace specsyn {

/// Which interpreter executes the specification. All tiers are bit-identical
/// in SimResult and observer streams; they differ only in per-step cost.
enum class ExecTier : uint8_t {
  Tree,      // legacy tree-walking interpreter (semantic reference)
  Lowered,   // slot-indexed Program + frame machine (sim/program.h)
  Bytecode,  // flat threaded-code bytecode (sim/bytecode.h)
};

/// Tier names, indexed by value.
inline constexpr std::array<const char*, 3> kExecTierNames = {
    "tree", "lowered", "bytecode"};

/// Parses an exec-tier name (one of kExecTierNames); returns false on
/// anything else.
bool parse_exec_tier(const std::string& name, ExecTier* out);

/// Spelling of a tier, inverse of parse_exec_tier.
const char* exec_tier_name(ExecTier tier);

/// The default SimConfig::exec_tier: ExecTier::Bytecode, overridable by the
/// SPECSYN_EXEC_TIER environment variable (read once per process). The env
/// var moves the *default* only — code that assigns exec_tier explicitly is
/// unaffected, which lets CI force a tier across a whole test binary without
/// touching tests that pin a tier on purpose.
ExecTier default_exec_tier();

struct SimConfig {
  /// Hard stop; a run reaching it reports Status::MaxCycles.
  uint64_t max_cycles = 50'000'000;
  /// Clock frequency used when converting cycles to seconds in reports.
  double clock_hz = 100e6;
  /// Which interpreter runs the spec. Results are bit-identical across all
  /// tiers; the tree tier is kept as the semantic reference (reachable via
  /// `specsyn --exec-tier tree`). Defaults to Bytecode unless the
  /// SPECSYN_EXEC_TIER environment variable overrides it.
  ExecTier exec_tier = default_exec_tier();
  /// Pick trace: entry i is the index into the canonical-order ready set
  /// taken at decision point i, an instant whose ready set holds >= 2
  /// processes (instants with a single ready process consume nothing). An
  /// empty or exhausted trace is canonical, (time, seq) order (pick 0); a
  /// pick out of range throws. This is the seam schedule exploration
  /// (src/analysis/schedules) is built on, honored identically by all three
  /// execution tiers. A nonempty trace (or record_schedule) turns off the
  /// bytecode tier's statement chaining so decision points land identically
  /// on every tier; the canonical run costs one predictable branch per step.
  std::vector<uint32_t> sched_picks;
  /// Record every decision point into SimResult::sched_decisions — the raw
  /// material schedule exploration branches on.
  bool record_schedule = false;
};

/// Observation callbacks — the simulator's one observer seam, fired by all
/// three execution tiers with identical streams.
///
/// Callbacks carry dense slot indices and interned behavior ids rather than
/// names; an observer resolves them against the simulator's tables exactly
/// once, in on_bind, and materializes names only when it exports a report or
/// trace. `behavior` is the interned id of the innermost started behavior of
/// the acting process (transition-guard evaluation reports the composite
/// itself). Attaching any observer selects the observed stepping variant for
/// the whole run; an unobserved run contains no observer dispatch at all.
class SlotObserver {
 public:
  virtual ~SlotObserver() = default;

  /// Slot/id authorities, valid for the whole run. `behavior_names` is never
  /// null and is indexed by interned behavior id (pre-order over the spec's
  /// behavior tree, identical on every tier).
  struct Binding {
    const VarTable* vars = nullptr;
    const SignalTable* signals = nullptr;
    const std::vector<std::string>* behavior_names = nullptr;
  };

  /// Called once at the start of run(), before any event fires.
  virtual void on_bind(const Binding& b) { (void)b; }

  /// A read of spec variable `slot` (VarTable index). Procedure locals and
  /// signals are not reported.
  virtual void on_var_read(uint32_t slot, uint32_t behavior, uint64_t time) {
    (void)slot; (void)behavior; (void)time;
  }

  /// A write to spec variable `slot`; `value` is the stored (wrapped) value.
  virtual void on_var_write(uint32_t slot, uint32_t behavior, uint64_t time,
                            uint64_t value) {
    (void)slot; (void)behavior; (void)time; (void)value;
  }

  /// A signal update committed by the kernel that *visibly changed* the
  /// signal (an update to the current value fires nothing). `value` is
  /// wrapped.
  virtual void on_signal_commit(uint32_t slot, uint64_t time, uint64_t value) {
    (void)slot; (void)time; (void)value;
  }

  /// A `<=` signal assignment executed by a process — fires at schedule
  /// time (the commit lands one cycle later and may be absorbed by an
  /// equal value). This is what attributes a bus handshake to its master.
  virtual void on_signal_schedule(uint32_t slot, uint32_t behavior,
                                  uint64_t time, uint64_t value) {
    (void)slot; (void)behavior; (void)time; (void)value;
  }

  /// Behavior entry/exit with the interned id and the executing process.
  virtual void on_behavior_start(uint32_t behavior, uint64_t process,
                                 uint64_t time) {
    (void)behavior; (void)process; (void)time;
  }
  virtual void on_behavior_end(uint32_t behavior, uint64_t process,
                               uint64_t time) {
    (void)behavior; (void)process; (void)time;
  }

  /// Called once when the run ends (quiescent or max-cycles), with the final
  /// simulation time — the denominator for utilization-style metrics.
  virtual void on_run_end(uint64_t end_time) { (void)end_time; }
};

/// One committed write to an `observable` variable.
struct WriteEvent {
  std::string var;
  uint64_t value = 0;
  uint64_t time = 0;

  friend bool operator==(const WriteEvent&, const WriteEvent&) = default;
};

/// Diagnostic snapshot of a process that was still blocked when the
/// simulation ended — the raw material for deadlock analysis of refined
/// specifications (e.g. a mis-generated handshake).
struct BlockedProcess {
  uint64_t process_id = 0;
  /// Innermost started behavior of the process ("<none>" before its first
  /// behavior started), named from its interned id when the run ends.
  std::string behavior;
  /// The wait condition it was blocked on (printed), or "<join>" when
  /// waiting for concurrent children.
  std::string waiting_on;
};

/// One recorded scheduling decision: an instant whose ready set held two or
/// more processes. `ready` holds, for every candidate in canonical (seq)
/// order, the interned id of its innermost *started* behavior (pre-order
/// over the spec's behavior tree, as SpecIndex numbers it, identical on every
/// tier), or SpecIndex::kNone for a process whose first behavior has not
/// started. A sequential composite whose next child is pushed but not yet
/// started is itself the entry. `pick` is the index stepped first — feeding
/// picks back through SimConfig::sched_picks replays the schedule.
struct SchedDecision {
  uint64_t time = 0;
  uint32_t pick = 0;
  std::vector<uint32_t> ready;

  friend bool operator==(const SchedDecision&, const SchedDecision&) = default;
};

struct SimResult {
  enum class Status {
    Quiescent,  // event queue drained; no runnable process remains
    MaxCycles,  // hit SimConfig::max_cycles
  };
  Status status = Status::Quiescent;
  uint64_t end_time = 0;
  uint64_t steps = 0;
  /// True if the root process (the top behavior) ran to completion.
  bool root_completed = false;
  /// Processes still blocked at the end (never-completing server loops of a
  /// refined spec are expected here; a blocked *main flow* is a deadlock).
  std::vector<BlockedProcess> blocked;
  /// Final value of every spec variable (by unique name).
  std::map<std::string, uint64_t> final_vars;
  /// Chronological writes to observable variables.
  std::vector<WriteEvent> observable_writes;
  /// Completion count per behavior name.
  std::map<std::string, uint64_t> behavior_completions;
  /// Decision points recorded when SimConfig::record_schedule was set (empty
  /// otherwise). Decision i replays via SimConfig::sched_picks[i].
  std::vector<SchedDecision> sched_decisions;
};

class Program;
struct LBehavior;
struct LBlock;
struct LStmt;
struct LExpr;
struct LOp;
struct LTarget;

class BytecodeProgram;
struct BInstr;
struct BBehavior;
struct BWaitSite;
struct BTarget;

class ProgramCache;
class SimPlan;

class Simulator {
 public:
  /// Runs `plan` (sim/plan.h) on cfg.exec_tier, which must be a tier the
  /// plan holds (SpecError otherwise). Validates and compiles nothing; the
  /// plan is pinned for the simulator's lifetime and may be shared with
  /// other simulators on other threads.
  explicit Simulator(std::shared_ptr<const SimPlan> plan, SimConfig cfg = {});

  /// Builds a plan for cfg.exec_tier alone, which validates `spec` (SpecError
  /// when invalid); `spec` must outlive the simulator. When `programs` is
  /// non-null and a compiled tier is selected, the plan is fetched from /
  /// inserted into that cache instead (a hit skips validation: the entry's
  /// content-identical spec was validated when it was built).
  explicit Simulator(const Specification& spec, SimConfig cfg = {},
                     ProgramCache* programs = nullptr);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Attaches an observer (any tier). Observers are borrowed; they must
  /// outlive run().
  void add_slot_observer(SlotObserver* obs);

  /// Runs to quiescence (or max_cycles). May be called once; to run a spec
  /// again, construct another simulator from the same plan.
  SimResult run();

  [[nodiscard]] const SimConfig& config() const { return cfg_; }

 private:
  struct Process;
  struct Frame;

  // kernel (simulator.cpp)
  Process& spawn(const Behavior* b, const LBehavior* lb, const BBehavior* bb,
                 Process* parent);
  void enqueue(Process& p, uint64_t time);
  /// Re-arms p for its next step one cycle from now (frames.h).
  void rearm_step(Process& p);
  /// Schedules a signal update to commit one cycle from now (frames.h).
  void schedule_signal(size_t idx, uint64_t value);
  void wake_sensitive(size_t signal_idx, uint64_t time);
  void finish_process(Process& p, uint64_t time);
  /// Commits one scheduled signal update at now_: observers + waiter wakes.
  void commit_signal(size_t signal, uint64_t value, bool observed);
  /// run()'s event loop, shared by every tier and schedule; `Step` is
  /// the tier's stepping function. Lives in interp_bytecode.cpp so bstep<Obs>
  /// inlines into the loop body — the bytecode hot path (event loop, frame
  /// dispatch, VM) is one translation unit.
  template <bool Obs, void (Simulator::*Step)(Process&)>
  void run_loop(SimResult& result);

  // legacy interpreter (interp.cpp): resolves names at execution time
  void step(Process& p);
  uint64_t eval(const Expr& e, Process& p);
  uint64_t read_name(const std::string& name, Process& p);
  void write_var(const std::string& name, uint64_t value, Process& p);
  void exec_stmt(const Stmt& s, Process& p);
  void enter_behavior(const Behavior& b, Process& p);
  void leave_frame(Process& p);
  void seq_advance(Process& p);
  void block_on(Process& p, const Expr& cond);

  // lowered interpreter (interp_lowered.cpp): runs the compiled Program.
  // `Obs` selects the observer-notifying variant once per run; the steady
  // state of an unobserved run contains no observer dispatch at all.
  template <bool Obs> void lstep(Process& p);
  template <bool Obs> uint64_t leval(const LExpr& e, Process& p);
  template <bool Obs> void lwrite(const LTarget& t, uint64_t value, Process& p);
  template <bool Obs> void lexec_stmt(const LStmt& s, Process& p);
  template <bool Obs> void lseq_advance(Process& p);
  void lenter_behavior(const LBehavior& b, Process& p);
  void lblock_on(Process& p, const LStmt& s);
  Frame& innermost_call(Process& p);

  // attribution shared by the three tiers (simulator.cpp): observer dispatch
  // (only when an observer is attached), recorded ready sets and the
  // blocked-process report
  uint32_t innermost_behavior_id(const Process& p) const;
  /// Name of interned behavior `id` under the running tier.
  [[nodiscard]] const std::string& behavior_name(uint32_t id) const;
  void notify_var_read(uint32_t slot, const Process& p);
  void notify_var_write(uint32_t slot, const Process& p);
  void notify_signal_schedule(uint32_t slot, uint64_t value,
                              const Process& p);

  // bytecode interpreter (interp_bytecode.cpp): runs the flat BytecodeProgram
  // with the same frame machine (only Behavior/Seq/Conc/Call/Code frames).
  // bexec/bseq_advance return true when the step was charged inline by
  // chain_advance and the caller must re-dispatch on the new top frame.
  template <bool Obs> void bstep(Process& p);
  template <bool Obs> bool bexec(Process& p);
  template <bool Obs> uint64_t beval_guard(uint32_t pc, Process& p);
  template <bool Obs> bool bseq_advance(Process& p);
  /// Statement chaining (see interp_bytecode.cpp): proves the stepping
  /// process is the only pending work at now_ + 1, advances now_/steps_
  /// inline (retiring a pending commit instant if one is due), and returns
  /// true so the VM keeps executing without a scheduler round-trip.
  template <bool Obs> bool chain_advance();
  /// O(1) innermost-call lookup off Process::call_idx (bytecode tier).
  Frame& bcall_frame(Process& p);
  template <bool Obs> void bwrite_var(uint32_t slot, uint64_t value,
                                      Process& p);
  void benter_behavior(const BBehavior& b, Process& p);
  void bblock_on(Process& p, const BWaitSite& site);

  /// Validated spec, slot layouts and compiled programs; everything below
  /// that points into a program or the spec is anchored by this.
  std::shared_ptr<const SimPlan> plan_;
  const Specification& spec_;
  SimConfig cfg_;
  std::vector<SlotObserver*> slot_observers_;

  VarTable vars_;
  SignalTable signals_;

  /// The plan's lowered Program (null unless exec_tier == Lowered).
  const Program* prog_ = nullptr;
  /// Base of prog_'s pooled postfix ops (cached; LExpr ranges index into it).
  const LOp* ops_base_ = nullptr;
  /// Scratch value stack for leval (lowered; sized to max_eval_stack).
  std::vector<uint64_t> eval_stack_;
  /// Completion counts by interned behavior id (pre-order, every tier).
  std::vector<uint64_t> completions_;

  /// Bytecode tier state (null/empty under the other tiers).
  const BytecodeProgram* bprog_ = nullptr;
  const BInstr* bcode_ = nullptr;     // cached bprog_->code().data()
  std::vector<uint64_t> regs_;        // register file (reg_count() slots)
  std::vector<uint64_t> staging_;     // pending call in-args, by param slot
  /// Behavior names indexed by interned id, materialized once per observed
  /// run for the SlotObserver binding.
  std::vector<std::string> bound_names_;
  /// Tree tier's behavior ids: the index's pre-order numbering, which the
  /// compiled tiers intern too.
  std::optional<SpecIndex> tree_index_;

  std::vector<std::unique_ptr<Process>> processes_;

  // Bucket scheduler. Every event lands at now_ (wakes, joins) or now_ + 1
  // (statements, signal commits) except `delay N` with N >= 2, so those two
  // instants get plain FIFO vectors and the heap below serves only as the
  // overflow for multi-cycle delays. Ordering stays the global (time, seq)
  // order: for any instant T, overflow steps were scheduled at sim time
  // <= T - 2 and bucket entries at T - 1 or T, so the overflow steps carry
  // smaller seqs and head the instant's ready list.
  struct RunEvent {
    uint64_t time;
    uint64_t seq;
    Process* proc;
    bool operator>(const RunEvent& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  std::priority_queue<RunEvent, std::vector<RunEvent>, std::greater<>> run_q_;

  struct PendingSig {
    uint32_t signal;
    uint64_t value;
  };
  struct Bucket {
    std::vector<Process*> runs;
    std::vector<PendingSig> sigs;
    [[nodiscard]] bool empty() const { return runs.empty() && sigs.empty(); }
  };
  Bucket buckets_[2];
  Bucket* fb_cur_ = &buckets_[0];   // events at now_
  Bucket* fb_next_ = &buckets_[1];  // events at now_ + 1
  /// Index into fb_cur_->runs of the entry *after* the one being stepped,
  /// maintained by run_loop around every step. fb_cur_->runs[fb_run_next_..]
  /// is the instant's remaining ready set in canonical order; the VM's
  /// statement chain (interp_bytecode.cpp) reads it to prove the current
  /// process is the last pending step of the instant.
  uint32_t fb_run_next_ = 0;

  // Schedule state. sched_active_ is set iff the run replays or records pick
  // order (nonempty sched_picks or record_schedule); it turns off statement
  // chaining so every tier sees the same decision points.
  bool sched_active_ = false;
  size_t sched_pick_cursor_ = 0;  // next entry of cfg_.sched_picks
  std::vector<SchedDecision> sched_trace_;
  /// Takes the next pick of the trace for the instant's ready set (k >= 2
  /// entries from fb_run_next_): returns the index to step next and, when
  /// recording, appends the decision to sched_trace_.
  uint32_t sched_pick(size_t k);

  uint64_t seq_counter_ = 0;
  uint64_t now_ = 0;
  uint64_t steps_ = 0;
  bool ran_ = false;

  // blocked-on-wait bookkeeping, indexed by signal slot
  std::vector<std::vector<Process*>> waiters_;

  // observability flag per variable slot (writes to flagged slots are
  // traced); the plan's table
  const uint8_t* observable_ = nullptr;

  // Committed observable writes, slot-indexed; names are materialized into
  // WriteEvents once at the end of run() instead of copied per write.
  struct RawWrite {
    uint32_t var;
    uint64_t value;
    uint64_t time;
  };
  std::vector<RawWrite> raw_writes_;
  Process* root_ = nullptr;
};

}  // namespace specsyn
