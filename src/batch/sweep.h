// Design-space sweep: fan the model x protocol x scheme refinement matrix
// over the batch thread pool and rank the outcomes.
//
// This is the paper's Section 5 experiment as a reusable engine: every
// configuration is refined, statically verified, priced (estimate/cost),
// simulated with a BusTracer, and optionally checked for functional
// equivalence — each point an independent job on the pool. The original
// spec is simulated (and, with schedule exploration, explored) once per
// sweep and each refined spec once per point: the measured run is also the
// refined side of the equivalence check. The
// ranked table/JSON is bit-identical for any
// worker count: jobs write only their own row, and ranking is a pure sort
// over deterministic per-row data (matrix index breaks all ties).
//
// `specsyn sweep` and examples/medical_explorer are thin fronts over
// run_sweep(); recommend() reads the Section 5 choice off a finished sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/thread_pool.h"
#include "estimate/profile.h"
#include "graph/access_graph.h"
#include "partition/partition.h"
#include "refine/types.h"

namespace specsyn::batch {

/// One point of the refinement design space.
struct SweepPoint {
  RefineConfig config;
  /// Compact label, e.g. "model3/hs/loop/inline".
  [[nodiscard]] std::string label() const;
};

/// The full 4 models x 2 protocols x 2 leaf schemes x {inline, shared}
/// matrix (32 points), in deterministic order.
[[nodiscard]] std::vector<SweepPoint> full_matrix();
/// The paper's Section 5 axis: the four models under one fixed protocol /
/// scheme configuration (4 points).
[[nodiscard]] std::vector<SweepPoint> model_axis();

struct SweepOptions {
  double clock_hz = 100e6;
  uint64_t max_cycles = 0;  ///< 0 => SimConfig default
  ExecTier exec_tier = default_exec_tier();
  /// Also compare each point's observable behaviour with the original spec's
  /// (sim/equivalence). The original is simulated once, before the batch,
  /// and each point reuses its measured run, so the per-point cost is one
  /// comparison; an original that fails to simulate fails every row.
  bool verify = false;
  /// With `verify`, additionally run the partition-consistency check over up
  /// to this many explored schedules per side (analysis/schedules): every
  /// refined outcome must be one the original permits. The original is
  /// explored once, before the batch; an original that fails to explore
  /// fails every row. 0 disables.
  size_t explore_schedules = 0;
};

/// Everything measured about one refined configuration.
struct SweepRow {
  SweepPoint point;
  size_t matrix_index = 0;  ///< position in the input matrix (tie-breaker)
  bool refine_ok = false;
  std::string error;  ///< refine/simulate failure, empty when refine_ok

  // Static: structure, estimated rates, cost, verifier findings.
  size_t buses = 0;
  size_t lines = 0;
  double peak_mbps = 0.0;
  double cost = 0.0;
  size_t sa_errors = 0;
  size_t sa_warnings = 0;

  // Dynamic: the measured run of the refined spec.
  uint64_t cycles = 0;
  bool root_completed = false;
  double peak_util_pct = 0.0;          ///< busiest bus utilization
  uint64_t contention_cycles = 0;      ///< summed over all buses
  std::string busiest_bus;

  // Only meaningful when SweepOptions::verify was set.
  bool verified = false;
  bool equivalent = false;

  // Only meaningful when SweepOptions::explore_schedules was set with
  // verify: the schedule-inclusion (partition-consistency) check.
  bool sched_checked = false;
  bool sched_consistent = false;
  uint64_t sched_explored = 0;  ///< refined-side schedules simulated
};

struct SweepReport {
  /// Ranked best-first: refine_ok, then (when verified) equivalence, then
  /// fewest SA errors, fewest cycles, lowest cost, matrix order.
  std::vector<SweepRow> rows;
  bool verify = false;

  /// Fixed-width human-readable ranking table.
  [[nodiscard]] std::string table() const;
  /// The same data as a JSON object (rows in ranked order).
  [[nodiscard]] std::string json() const;
};

/// Refines/measures every `matrix` point of `part` on `pool`. `graph` and
/// `prof` must come from `spec`; `part` must partition `spec`. All four are
/// shared read-only across workers.
[[nodiscard]] SweepReport run_sweep(const Specification& spec,
                                    const Partition& part,
                                    const AccessGraph& graph,
                                    const ProfileResult& prof,
                                    const std::vector<SweepPoint>& matrix,
                                    const SweepOptions& opts, ThreadPool& pool);

/// The paper's closing advice as a scan of `report`'s rows: among the rows
/// that refined and whose estimated peak bus rate is within `max_bus_mbps`
/// (0 = no ceiling), the cheapest, ties broken by the lowest matrix index.
/// Null when no row qualifies.
[[nodiscard]] const SweepRow* recommend(const SweepReport& report,
                                        double max_bus_mbps);

}  // namespace specsyn::batch
