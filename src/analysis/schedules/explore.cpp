#include "analysis/schedules/explore.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "analysis/context.h"
#include "analysis/verifier.h"
#include "batch/thread_pool.h"
#include "sim/equivalence.h"
#include "sim/plan.h"
#include "sim/sched.h"
#include "support/diagnostics.h"
#include "telemetry/telemetry.h"

namespace specsyn::analysis::schedules {

namespace {

/// Behavior-id pairs (behavior_pair keys, sorted) holding an SA020 racing
/// access pair (Context::races). These are the only reorderings that can
/// change an observable outcome, so they are the only places exploration
/// branches.
std::vector<uint64_t> racing_behaviors(const Context& ctx) {
  std::vector<uint64_t> pairs;
  pairs.reserve(ctx.races().size());
  for (const Race& r : ctx.races()) {
    pairs.push_back(behavior_pair(r.a_id, r.b_id));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

bool is_racing(const std::vector<uint64_t>& pairs, uint32_t a, uint32_t b) {
  return std::binary_search(pairs.begin(), pairs.end(), behavior_pair(a, b));
}

std::vector<uint32_t> taken_picks(const SimResult& run) {
  std::vector<uint32_t> taken;
  taken.reserve(run.sched_decisions.size());
  for (const SchedDecision& d : run.sched_decisions) taken.push_back(d.pick);
  return taken;
}

/// A run of `plan` under `cfg` that replays `picks` (canonical beyond the
/// end) and records every decision.
SimResult recorded_run(const std::shared_ptr<const SimPlan>& plan,
                       SimConfig cfg, std::vector<uint32_t> picks = {}) {
  cfg.sched_picks = std::move(picks);
  cfg.record_schedule = true;
  return Simulator(plan, std::move(cfg)).run();
}

/// explore() proper; a non-null `original` marks ctx.spec() as its
/// refinement, whose outcomes outcome_of projects onto the original.
ExploreResult explore_runs(const Context& ctx,
                           const std::shared_ptr<const SimPlan>& plan,
                           const ExploreOptions& opts,
                           const SimResult& baseline,
                           const Specification* original) {
  // Without the decision record the baseline offers no branch, and the
  // exploration would call one schedule complete.
  if (!baseline.schedule_recorded) {
    throw SpecError(
        "explore: the baseline run was not recorded "
        "(SimConfig::record_schedule)");
  }
  telemetry::Span span("explore", telemetry::Stability::Stable);
  const std::vector<uint64_t> races = racing_behaviors(ctx);

  ExploreResult result;
  const size_t bound = std::max<size_t>(1, opts.max_schedules);

  // Schedule tree. A frontier entry is a branch off an explored schedule:
  // its pick trace up to `decision`, then `alt` there; the run it seeds
  // replays that prefix and continues canonically. A run only branches at
  // decisions past its own seed prefix (the earlier ones are its ancestors'
  // to expand), so every branch names a distinct pick trace.
  struct Branch {
    size_t parent;    // index into result.schedules
    size_t decision;  // decision index the alternative is taken at
    uint32_t alt;
  };
  std::deque<Branch> frontier;

  auto expand = [&](const SimResult& run, size_t from_decision) {
    const size_t parent = result.schedules.size();  // `run` is pushed next
    for (size_t d = from_decision; d < run.sched_decisions.size(); ++d) {
      const SchedDecision& dec = run.sched_decisions[d];
      const size_t k = dec.ready.size();
      for (uint32_t alt = 0; alt < k; ++alt) {
        if (alt == dec.pick) continue;
        // Picking `alt` ahead of its turn reorders it against every other
        // ready process; the branch matters only if one of those pairs is
        // statically racing.
        bool allowed = !opts.prune;
        for (size_t other = 0; other < k && !allowed; ++other) {
          allowed = other != alt &&
                    is_racing(races, dec.ready[alt], dec.ready[other]);
        }
        if (!allowed) {
          ++result.pruned;
          continue;
        }
        frontier.push_back({parent, d, alt});
      }
    }
  };
  // The pick trace a branch replays, built only when its run starts.
  const auto picks_of = [&](const Branch& b) {
    const std::vector<uint32_t>& trace = result.schedules[b.parent].picks;
    std::vector<uint32_t> picks(trace.begin(), trace.begin() + b.decision);
    picks.push_back(b.alt);
    return picks;
  };

  // Baseline: the caller's recorded run of the canonical schedule.
  expand(baseline, 0);
  result.schedules.push_back(
      {taken_picks(baseline), outcome_of(baseline, original), false});

  // By value: the loop below grows result.schedules, and a reallocation
  // would dangle a reference into it.
  const Outcome base_outcome = result.schedules.front().outcome;
  while (!frontier.empty() && result.schedules.size() < bound) {
    // One wave: as many frontier branches as the budget still allows, run
    // as one (optionally parallel) batch, merged in index order so the
    // result is byte-identical for any worker count.
    const size_t wave =
        std::min(frontier.size(), bound - result.schedules.size());
    std::vector<Branch> branches(frontier.begin(), frontier.begin() + wave);
    frontier.erase(frontier.begin(), frontier.begin() + wave);
    std::vector<SimResult> runs;
    if (opts.pool != nullptr && wave > 1) {
      runs = batch::run_batch<SimResult>(
          *opts.pool, wave, [&](size_t job, batch::WorkerContext&) {
            return recorded_run(plan, opts.config, picks_of(branches[job]));
          });
    } else {
      runs.reserve(wave);
      for (const Branch& b : branches) {
        runs.push_back(recorded_run(plan, opts.config, picks_of(b)));
      }
    }
    for (size_t i = 0; i < runs.size(); ++i) {
      Schedule sch{taken_picks(runs[i]), outcome_of(runs[i], original), false};
      sch.divergent = !(sch.outcome == base_outcome);
      expand(runs[i], branches[i].decision + 1);
      if (sch.divergent) {
        ++result.divergent;
        if (result.witness.empty()) {
          result.witness = format_witness(sch.picks);
          result.divergence =
              describe_differences(original != nullptr ? *original
                                                       : ctx.spec(),
                                   base_outcome, sch.outcome, "baseline",
                                   "witness")
                  .front();
        }
      }
      result.schedules.push_back(std::move(sch));
    }
  }

  result.explored = result.schedules.size();
  result.complete = frontier.empty();
  if (telemetry::enabled()) {
    telemetry::count("sched.explored", telemetry::Stability::Stable,
                     result.explored);
    telemetry::count("sched.pruned", telemetry::Stability::Stable,
                     result.pruned);
    telemetry::count("sched.divergent", telemetry::Stability::Stable,
                     result.divergent);
    if (!result.witness.empty()) {
      telemetry::count("sched.witnesses", telemetry::Stability::Stable, 1);
    }
  }
  return result;
}

}  // namespace

ExploreResult explore(const Context& ctx,
                      const std::shared_ptr<const SimPlan>& plan,
                      const ExploreOptions& opts, const SimResult& baseline) {
  return explore_runs(ctx, plan, opts, baseline, nullptr);
}

ExploreResult explore(const Specification& spec, const Context& ctx,
                      const ExploreOptions& opts) {
  const auto plan = SimPlan::build(spec, opts.config.exec_tier);
  return explore(ctx, plan, opts, recorded_run(plan, opts.config));
}

InclusionResult check_inclusion(
    const Specification& original, const ExploreResult& original_runs,
    const Context& refined_ctx,
    const std::shared_ptr<const SimPlan>& refined_plan,
    const ExploreOptions& opts, const SimResult& refined_baseline) {
  // Refined outcomes come out of outcome_of already projected onto the
  // original's variables.
  const ExploreResult refined = explore_runs(refined_ctx, refined_plan, opts,
                                             refined_baseline, &original);

  InclusionResult result;
  result.original_explored = original_runs.explored;
  result.refined_explored = refined.explored;

  const auto digest_of = [&](Outcome o) {
    if (!opts.compare_write_traces) o.writes.clear();
    return o.digest();
  };
  std::set<std::string> permitted;
  for (const Schedule& s : original_runs.schedules) {
    permitted.insert(digest_of(s.outcome));
  }
  for (const Schedule& s : refined.schedules) {
    const std::string digest = digest_of(s.outcome);
    if (permitted.count(digest) != 0) continue;
    if (!original_runs.complete) {
      // The escaping outcome may simply be missing from a truncated
      // enumeration of the original; don't call that a bug.
      result.inconclusive = true;
      continue;
    }
    result.holds = false;
    result.violation = "refined outcome under schedule '" +
                       format_witness(s.picks) +
                       "' is not an outcome the original permits over " +
                       std::to_string(original_runs.explored) +
                       " explored original schedules: " + digest;
    break;
  }
  return result;
}

InclusionResult check_inclusion(const Specification& original,
                                const Specification& refined,
                                const ExploreOptions& opts) {
  const ExploreResult original_runs =
      explore(original, Context(original), opts);
  const auto plan = SimPlan::build(refined, opts.config.exec_tier);
  return check_inclusion(original, original_runs, Context(refined), plan, opts,
                         recorded_run(plan, opts.config));
}

}  // namespace specsyn::analysis::schedules

namespace specsyn::analysis {

void check_schedules(const Context& ctx, Report& report,
                     const schedules::ExploreOptions& opts) {
  const schedules::ExploreResult explored =
      schedules::explore(ctx.spec(), ctx, opts);

  report.schedules.ran = true;
  report.schedules.explored = explored.explored;
  report.schedules.pruned = explored.pruned;
  report.schedules.divergent = explored.divergent;
  report.schedules.complete = explored.complete;

  if (!explored.diverged()) return;
  // Dynamic evidence upgrades the static race reports: the same witness
  // replays the divergent run that proves the SA020s are not false alarms.
  for (Finding& f : report.findings) {
    if (f.code == "SA020") f.witness = explored.witness;
  }
  Finding f;
  f.code = "SA021";
  f.severity = Severity::Error;
  f.message = "schedule-sensitive outcome: " + explored.divergence + " (" +
              std::to_string(explored.divergent) + " of " +
              std::to_string(explored.explored) +
              " explored schedules diverge)";
  f.witness = explored.witness;
  report.findings.push_back(std::move(f));
}

}  // namespace specsyn::analysis
