// Bounded schedule exploration over the simulator's SchedPolicy seam.
//
// A specification's observable outcome should not depend on how the kernel
// breaks ties between simultaneously-ready processes — the refiner
// serializes every shared access through a bus, so any schedule sensitivity
// that survives refinement is a race. This module enumerates interleavings
// to find (or rule out, up to a bound) exactly that:
//
//   * the baseline run replays the canonical Fifo schedule while recording
//     every decision point (an instant whose ready set held >= 2 processes),
//   * each explored schedule proposes one alternative pick at one decision
//     point of an already-run schedule and replays canonically after it
//     (prefix enumeration — every interleaving is reachable this way),
//   * partial-order pruning keeps the frontier honest: a branch is only
//     taken when the reordered process's behavior forms a statically racing
//     pair (the SA020 predicate over analysis::Context) with another member
//     of the ready set — reordering independent behaviors cannot change the
//     outcome, so those branches are counted as pruned, not explored,
//   * outcomes are compared timing-free (final variables + per-variable
//     observable write value sequences + termination status); two schedules
//     that disagree yield a replayable witness ("picks:..." — sim/sched.h).
//
// The same machinery backs the partition-consistency fuzz oracle
// (check_inclusion): every outcome the refined specification can exhibit
// over the explored schedules must be an outcome the original permits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "spec/specification.h"

namespace specsyn {
class SimPlan;
}  // namespace specsyn

namespace specsyn::batch {
class ThreadPool;
}  // namespace specsyn::batch

namespace specsyn::analysis {

class Context;

namespace schedules {

/// Timing-free observable outcome of one simulated schedule. Write times are
/// deliberately dropped: permuting same-instant ties shifts timestamps
/// without changing what the environment can observe.
struct Outcome {
  SimResult::Status status = SimResult::Status::Quiescent;
  bool root_completed = false;
  /// Final value of every variable (by unique name).
  std::map<std::string, uint64_t> final_vars;
  /// Observable write value sequences, per variable.
  std::map<std::string, std::vector<uint64_t>> writes;

  friend bool operator==(const Outcome&, const Outcome&) = default;

  /// Restriction to the named variables (inclusion checks project the
  /// refined outcome onto the original specification's variables).
  [[nodiscard]] Outcome project(const std::set<std::string>& vars) const;

  /// Canonical one-line rendering, for set membership and report text.
  [[nodiscard]] std::string digest() const;
};

/// Extracts the timing-free outcome of a finished run. When `root_behavior`
/// is non-empty, the run also counts as root-complete if that behavior
/// completed at least once — a refined top is a Concurrent composite whose
/// server behaviors never finish, so the literal root never completes (the
/// same liveness criterion as sim/equivalence).
Outcome outcome_of(const SimResult& r, const std::string& root_behavior = {});

/// One explored interleaving.
struct Schedule {
  /// Full pick trace actually taken — replaying it reproduces the run
  /// byte-for-byte on any tier.
  std::vector<uint32_t> picks;
  Outcome outcome;
  bool divergent = false;  ///< outcome differs from the baseline schedule
};

struct ExploreOptions {
  /// Total schedules to simulate, baseline included.
  size_t max_schedules = 16;
  /// Tier / max_cycles / clock for every run; sched_policy, sched_picks and
  /// record_schedule are owned by the explorer and overwritten.
  SimConfig config;
  /// Partial-order pruning: branch only where the ready set holds a
  /// statically racing behavior pair. Disable to branch at every decision
  /// point (exhaustive mode, for tests and small specs).
  bool prune = true;
  /// Optional PR 5 pool: each exploration wave runs as one parallel batch.
  /// Results are byte-identical for any worker count.
  batch::ThreadPool* pool = nullptr;
  /// Liveness fallback handed to outcome_of (see there). check_inclusion
  /// sets this to the original top behavior for the refined side.
  std::string root_behavior;
  /// check_inclusion only: compare per-variable observable write value
  /// sequences. Callers disable this for byte-serial protocols, whose beat
  /// splitting legitimately changes the sequences (the same policy as
  /// EquivalenceOptions::compare_write_traces).
  bool compare_write_traces = true;
};

struct ExploreResult {
  /// Explored schedules; [0] is the baseline (canonical Fifo) run.
  std::vector<Schedule> schedules;
  uint64_t explored = 0;   ///< == schedules.size()
  uint64_t pruned = 0;     ///< branch candidates rejected by the race filter
  uint64_t divergent = 0;  ///< schedules whose outcome != baseline
  /// True when the frontier drained within max_schedules: the explored set
  /// covers every schedule the pruning rule distinguishes.
  bool complete = false;
  /// Witness of the first divergent schedule ("" when none): the "picks:..."
  /// string `specsyn simulate --replay-witness` consumes.
  std::string witness;
  /// Human-readable first point of disagreement (baseline vs witness).
  std::string divergence;

  [[nodiscard]] bool diverged() const { return divergent != 0; }
};

/// Explores up to max_schedules interleavings of ctx.spec(). `ctx` supplies
/// the static concurrency relation driving the pruning rule; every schedule
/// (pooled waves included) runs from `plan` (sim/plan.h), which must have
/// been built from the same specification for opts.config.exec_tier.
ExploreResult explore(const Context& ctx,
                      const std::shared_ptr<const SimPlan>& plan,
                      const ExploreOptions& opts);
/// explore() from a plan of `spec` built here; `ctx` must have been built
/// from `spec`.
ExploreResult explore(const Specification& spec, const Context& ctx,
                      const ExploreOptions& opts);

/// Partition-consistency check (the schedule-inclusion fuzz oracle): every
/// outcome `refined` exhibits over the explored schedules, projected onto
/// the original specification's variables, must be an outcome `original`
/// exhibits too. Termination status is compared only between the baselines;
/// the projection compares variable state and observable write sequences.
struct InclusionResult {
  bool holds = true;
  /// Set when a refined outcome escapes the original's explored set but the
  /// original enumeration was *incomplete* — the violation may be a coverage
  /// artifact, so `holds` stays true and the mismatch is surfaced here.
  bool inconclusive = false;
  /// Witness of the escaping refined schedule + outcome diff (on failure).
  std::string violation;
  uint64_t original_explored = 0;
  uint64_t refined_explored = 0;
};

/// Each side brings its Context and a plan built from the same spec for
/// opts.config.exec_tier; nothing is validated, walked or compiled here.
InclusionResult check_inclusion(
    const Context& original_ctx,
    const std::shared_ptr<const SimPlan>& original_plan,
    const Context& refined_ctx,
    const std::shared_ptr<const SimPlan>& refined_plan,
    const ExploreOptions& opts);
/// check_inclusion() with each side's Context and plan built here.
InclusionResult check_inclusion(const Specification& original,
                                const Specification& refined,
                                const ExploreOptions& opts);

}  // namespace schedules
}  // namespace specsyn::analysis
