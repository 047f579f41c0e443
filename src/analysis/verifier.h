// The static refinement verifier: machine-checks the structural invariants
// the refiner promises about its output, without simulating a cycle.
//
// Six checkers run over one shared analysis Context:
//
//   protocol conformance   SA001 master handshake incomplete
//                          SA002 slave serve loop broken / done pulse missing
//                          SA003 arbitrated transfer without req/ack
//                          SA004 incomplete bus signal bundle
//   deadlock               SA010 cycle in the bus hold graph
//                          SA011 wait condition statically unsatisfiable
//   races                  SA020 unmediated concurrent variable access
//   address map            SA030 overlapping slave decode windows
//                          SA031 master address no slave decodes
//                          SA032 slave decode no master addresses
//   arbiter / signals      SA040 master can never be granted the bus
//                          SA041 arbiter priority order != declared order
//                          SA042 signal written but never read (or unused)
//                          SA043 signal read but never written
//   control order          SA050 moved behavior served by != 1 server
//                          SA051 control start pulsed by != 1 stub
//                          SA052 control handshake not 4-phase
//
// One dynamic checker can be appended behind `specsyn check
// --explore-schedules` (check_schedules below): bounded schedule exploration
// over the simulator's SchedPolicy seam, emitting
//
//   schedules              SA021 schedule-sensitive observable outcome
//
// with a replayable witness attached to the SA021 (and to the SA020s that
// predicted the race) — see src/analysis/schedules/explore.h.
//
// A clean report on a refined model is the static half of the paper's
// functional-equivalence claim; the dynamic half stays in sim/equivalence.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.h"
#include "spec/specification.h"
#include "support/diagnostics.h"

namespace specsyn::batch {
class ThreadPool;
}  // namespace specsyn::batch

namespace specsyn::analysis {

class Context;

struct Finding {
  std::string code;             ///< "SA001"...
  Severity severity = Severity::Error;
  std::string behavior;         ///< hierarchy path, may be empty
  std::string message;
  /// Replayable schedule witness ("picks:..." form, sim/sched.h), attached
  /// by schedule exploration; empty for purely static findings. Feed it to
  /// `specsyn simulate --replay-witness` to reproduce the divergent run.
  std::string witness;

  [[nodiscard]] std::string str() const;
};

/// Summary of a schedule-exploration pass, carried on the Report so the
/// --json document (and the text footer) can show coverage next to the
/// findings. `ran` stays false when exploration was not requested.
struct ScheduleSummary {
  bool ran = false;
  uint64_t explored = 0;   ///< schedules actually simulated
  uint64_t pruned = 0;     ///< branch candidates rejected by the race filter
  uint64_t divergent = 0;  ///< schedules whose outcome differs from baseline
  bool complete = false;   ///< frontier drained within the bound
};

struct Report {
  std::vector<Finding> findings;
  ScheduleSummary schedules;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] size_t count(Severity s) const;
  [[nodiscard]] bool has_errors() const { return count(Severity::Error) > 0; }
  /// True when some finding carries the given code.
  [[nodiscard]] bool has(const std::string& code) const;

  void to_sink(DiagnosticSink& sink) const;
  /// Machine-readable report for `specsyn check --json`
  /// (schema "specsyn-check-v1"; validated by tools/check_diag_json.py).
  [[nodiscard]] std::string json(const std::string& spec_name) const;
};

/// Runs every checker over a prebuilt Context (analysis/context.h), so a
/// caller that also explores schedules walks the spec once. The spec must
/// pass validate(); call on refiner output (original unrefined
/// specifications simply have nothing to check).
[[nodiscard]] Report analyze(const Context& ctx);
/// analyze() over a Context built here.
[[nodiscard]] Report analyze(const Specification& spec);

/// Options for the dynamic schedule-exploration pass
/// (`specsyn check --explore-schedules[=N]`).
struct ScheduleCheckOptions {
  /// Total schedules to simulate, baseline included.
  size_t max_schedules = 16;
  /// Tier / max_cycles for every exploration run. sched_policy fields are
  /// overwritten by the explorer.
  SimConfig config;
  /// Optional PR 5 pool: exploration waves run as parallel batch jobs.
  /// Output is byte-identical for any worker count.
  batch::ThreadPool* pool = nullptr;
};

/// Bounded schedule exploration (src/analysis/schedules) appended to a
/// static `report`: fills report.schedules, emits SA021 when two explored
/// schedules disagree on the observable outcome, and attaches the replay
/// witness to the SA021 and every SA020 finding already present. `ctx`
/// drives the pruning rule; every explored schedule (pooled waves included)
/// runs from one plan of ctx.spec() built for opts.config.exec_tier.
void check_schedules(const Context& ctx, Report& report,
                     const ScheduleCheckOptions& opts);
/// check_schedules() over a Context built here.
void check_schedules(const Specification& spec, Report& report,
                     const ScheduleCheckOptions& opts);

}  // namespace specsyn::analysis
