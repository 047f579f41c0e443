// Bounded schedule exploration over the simulator's one schedule input, a
// pick trace (SimConfig::sched_picks, recorded via record_schedule).
//
// A specification's observable outcome should not depend on how the kernel
// breaks ties between simultaneously-ready processes — the refiner
// serializes every shared access through a bus, so any schedule sensitivity
// that survives refinement is a race. This module enumerates interleavings
// to find (or rule out, up to a bound) exactly that:
//
//   * the baseline run replays the empty (canonical) trace while recording
//     every decision point (an instant whose ready set held >= 2 processes,
//     as behavior ids),
//   * the explored schedules form a tree: a frontier entry is (parent
//     schedule, decision, alternative pick), and its run replays the
//     parent's picks up to that decision, takes the alternative and
//     continues canonically (every interleaving is reachable this way). A
//     run branches only past its own seed prefix, so no two entries name
//     the same schedule, and a pick trace exists only for a run that ran,
//   * partial-order pruning keeps the frontier honest: a branch is only
//     taken when the reordered process's behavior forms a racing pair
//     (Context::races, the SA020 relation) with another member of the ready
//     set — reordering independent behaviors cannot change the outcome, so
//     those branches are counted as pruned, not explored,
//   * two schedules whose outcomes (sim/equivalence.h) differ yield a
//     replayable witness ("picks:..." — sim/sched.h).
//
// The same machinery backs the partition-consistency fuzz oracle
// (check_inclusion): every outcome the refined specification can exhibit
// over the explored schedules must be an outcome the original permits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/equivalence.h"
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
  /// Tier / max_cycles / clock for every run; sched_picks and
  /// record_schedule are owned by the explorer and overwritten.
  SimConfig config;
  /// Partial-order pruning: branch only where the ready set holds a
  /// statically racing behavior pair. Disable to branch at every decision
  /// point (exhaustive mode, for tests and small specs).
  bool prune = true;
  /// Optional PR 5 pool: each exploration wave runs as one parallel batch.
  /// Results are byte-identical for any worker count.
  batch::ThreadPool* pool = nullptr;
  /// check_inclusion only: compare per-variable observable write value
  /// sequences. Callers set it from keeps_write_sequences(protocol)
  /// (refine/types.h); the field stays only because perfbench sets it, as
  /// EquivalenceOptions::compare_write_traces does.
  bool compare_write_traces = true;
};

struct ExploreResult {
  /// Explored schedules; [0] is the baseline (canonical) run.
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
  /// First line of describe_differences(baseline, witness).
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
/// exhibits too. Status and liveness are part of every outcome: a schedule
/// that deadlocks where the original terminated is a real divergence.
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

/// `original_runs` is explore() of `original` under the same options, made
/// once by a caller that checks several refinements against it (the sweep).
/// The refined side brings its Context and a plan built from the same spec
/// for opts.config.exec_tier; nothing is validated, walked or compiled here.
InclusionResult check_inclusion(
    const Specification& original, const ExploreResult& original_runs,
    const Context& refined_ctx,
    const std::shared_ptr<const SimPlan>& refined_plan,
    const ExploreOptions& opts);
/// check_inclusion() with both sides explored here.
InclusionResult check_inclusion(const Specification& original,
                                const Specification& refined,
                                const ExploreOptions& opts);

}  // namespace schedules
}  // namespace specsyn::analysis
