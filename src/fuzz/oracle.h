// Differential oracle harness: one generated specification, every layer of
// the pipeline cross-checked against every other.
//
// Per spec x sampled refinement config the harness checks:
//   roundtrip          print -> parse -> print is a fixpoint and the reparse
//                      validates (original spec)
//   interp-diff        the three execution tiers (tree, lowered, bytecode)
//                      bit-identical (final values, write events incl.
//                      times, end time, step count, completion counts)
//   analysis-original  the static verifier is silent on a functional model
//   refiner            refine() accepts the spec and produces a valid result
//   roundtrip-refined  the refined spec round-trips through the printer
//   interp-diff-refined  the three tiers agree on the refined spec
//   equivalence        refined behaviorally equivalent to the original
//                      (sim/equivalence: final values + observable write
//                      traces, main control flow completed), compared on
//                      the interp-diff runs of the configured tier
//   analysis-refined   zero SA-coded findings on a freshly refined spec —
//                      any finding is a bug in the refiner or the verifier
//   schedule-inclusion partition consistency over explored schedules
//                      (analysis/schedules): every outcome the refined spec
//                      exhibits across K explored interleavings, projected
//                      onto the original's variables, must be an outcome the
//                      original exhibits too
//
// A planted-bug mode (InjectedBug) mutates the refined spec the way a broken
// refinement procedure would, to prove the oracles and the reducer are live.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "refine/types.h"
#include "spec/specification.h"

namespace specsyn {
enum class ExecTier : uint8_t;
}

namespace specsyn::fuzz {

/// One sampled point of the refinement configuration space.
struct OracleConfig {
  ImplModel model = ImplModel::Model1;
  ProtocolStyle protocol = ProtocolStyle::FullHandshake;
  LeafScheme scheme = LeafScheme::LoopLeaf;
  bool inline_protocols = true;
  /// Number of components leaves are spread across (2 or 3).
  size_t components = 2;
  /// Seeds the deterministic leaf-to-component assignment.
  uint64_t partition_salt = 0;

  /// Compact human-readable form, e.g. "model3 hs wrapper shared p2 salt7".
  [[nodiscard]] std::string str() const;
};

/// Deterministically samples a config covering Model1-4 x both protocols x
/// both leaf schemes x inline/shared as `seed` sweeps an interval.
[[nodiscard]] OracleConfig sample_config(uint64_t seed);

/// Refiner-bug mimics, applied to the refined spec before the checks run.
enum class InjectedBug : uint8_t {
  None,
  /// Deletes the first `<x>_done <= 1` update — a protocol that never
  /// completes its handshake (deadlocks the refined main flow).
  DropDoneUpdate,
  /// Off-by-one on the first `<bus>_data <= ...` update — a transfer that
  /// silently corrupts the value it carries.
  CorruptDataUpdate,
};

/// Bug names, indexed by value: the CLI's `--inject-bug` spellings.
inline constexpr std::array<const char*, 3> kInjectedBugNames = {"none", "done",
                                                                 "data"};
[[nodiscard]] const char* to_string(InjectedBug b);

struct FuzzIssue {
  std::string oracle;  // which oracle fired (names above)
  std::string detail;  // what it saw
};

struct OracleOutcome {
  std::vector<FuzzIssue> issues;
  /// False when an InjectedBug was requested but found no applicable site
  /// (e.g. the sampled partition produced no cross-component traffic).
  bool injection_applied = true;

  [[nodiscard]] bool ok() const { return issues.empty(); }
};

struct OracleOptions {
  /// Simulation bound for every run the oracles perform.
  uint64_t max_cycles = 5'000'000;
  InjectedBug inject = InjectedBug::None;
  /// Execution tier whose runs the equivalence oracle compares. interp-diff
  /// runs both specs on every tier anyway, so equivalence simulates nothing
  /// itself. Unset = the process default tier.
  std::optional<ExecTier> exec_tier;
  /// Schedules per side for the schedule-inclusion oracle (0 disables it).
  /// Clean specs collapse to the baseline, the recorded tree-tier
  /// interp-diff run, so the steady-state cost is no simulation at all.
  size_t explore_schedules = 4;
};

/// Runs every oracle on `spec` (which must be valid — the first check) under
/// `cfg`. Never throws on refiner/simulator misbehavior; failures become
/// issues.
[[nodiscard]] OracleOutcome run_oracles(const Specification& spec,
                                        const OracleConfig& cfg,
                                        const OracleOptions& opts = {});

}  // namespace specsyn::fuzz
