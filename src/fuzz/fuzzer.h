// Differential fuzzer driver: generate -> oracle -> (optionally) reduce.
//
// Each seed in [start_seed, start_seed + seeds) produces one specification
// (generator seeded with the seed itself) and one refinement configuration
// (sample_config on the same seed, so a contiguous seed interval sweeps the
// whole config matrix). Failures are written to `out_dir` as .spec reproducer
// files whose leading comments carry the seed, the sampled config, and the
// oracle verdicts — everything needed to replay the failure by hand.
//
// The driver is deterministic: same options, same report, byte for byte
// (including the log stream). No timestamps, no wall-clock, no global state.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/oracle.h"

namespace specsyn::fuzz {

struct FuzzOptions {
  uint64_t start_seed = 1;
  size_t seeds = 100;
  /// Statement budget handed to the generator for every seed.
  size_t stmt_budget = 40;
  /// Shrink each failing spec with the delta-debugging reducer before
  /// writing the reproducer.
  bool reduce = false;
  /// Directory reproducers are written to (created on first failure).
  std::string out_dir = "fuzz-failures";
  /// When non-empty, every generated spec is dumped here (corpus mining).
  std::string dump_dir;
  /// Planted refiner bug, for proving the oracles and reducer are live.
  InjectedBug inject = InjectedBug::None;
  uint64_t max_cycles = 5'000'000;
  /// Execution tier whose runs the equivalence oracle compares
  /// (`--exec-tier`; interp-diff always cross-checks every tier). Unset =
  /// process default.
  std::optional<ExecTier> exec_tier;
  /// Schedules per side for the schedule-inclusion oracle
  /// (`--explore-schedules[=N]`; 0 disables).
  size_t explore_schedules = 4;
  /// Worker threads for the seed sweep (0 = one per core). Seeds are
  /// independent jobs on a batch::ThreadPool at every value, 1 included;
  /// per-seed work (including reduction) runs concurrently, while file
  /// writes and the log stream are emitted in a serial seed-order merge
  /// phase — so the report and the log are byte-identical for any value.
  size_t jobs = 1;
};

struct FuzzFailure {
  uint64_t seed = 0;
  OracleConfig config;
  std::vector<FuzzIssue> issues;
  std::string reproducer_path;
  size_t spec_lines = 0;     // lines of the written reproducer
  size_t reduced_from = 0;   // original line count when the reducer ran
};

struct FuzzReport {
  size_t seeds_run = 0;
  /// Seeds on which a requested injection found an applicable site.
  size_t injections_applied = 0;
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  /// Machine-readable report for `specsyn fuzz --json` (stable field order,
  /// failures in seed order — byte-identical for any --jobs value).
  [[nodiscard]] std::string json() const;
};

/// Runs the fuzz loop, logging one line per failure plus a summary to `log`.
FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream& log);

}  // namespace specsyn::fuzz
