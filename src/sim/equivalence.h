// Functional-equivalence checking between a specification and its refined
// implementation model.
//
// The paper's correctness requirement for every refinement procedure is that
// the implementation model be "functionally equivalent to the original
// model". We operationalize that as: simulating both specifications yields
//   (1) the same final value for every variable of the *original* spec
//       (each such variable exists, uniquely named, somewhere in the refined
//       spec — typically inside a generated Memory behavior), and
//   (2) the same per-variable sequence of committed writes for every
//       `observable` variable (timestamps are ignored; refinement changes
//       timing by design).
// Additionally the refined main control flow must have run to completion
// (no deadlock introduced by protocol insertion).
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.h"

namespace specsyn {

struct EquivalenceOptions {
  SimConfig config;
  /// Compare per-variable observable write sequences (not just final values).
  bool compare_write_traces = true;
  /// Run the two simulations concurrently (the original on a spawned thread,
  /// the refined on the caller's). Results are merged in a fixed order, so
  /// the report is identical to a serial run. Worth it when both specs are
  /// expensive to simulate; `refine --verify` enables it.
  bool parallel = false;
  /// Optional compiled-program cache; both simulations consult it. Safe to
  /// share across threads (internally locked).
  ProgramCache* programs = nullptr;
};

struct EquivalenceReport {
  bool equivalent = false;
  /// Human-readable mismatch descriptions (empty iff equivalent).
  std::vector<std::string> mismatches;
  SimResult original_result;
  SimResult refined_result;

  [[nodiscard]] std::string summary() const;
};

/// Simulates both specs and compares observable behaviour. `original` and
/// `refined` must both be valid.
[[nodiscard]] EquivalenceReport check_equivalence(
    const Specification& original, const Specification& refined,
    const EquivalenceOptions& opts = {});

/// The liveness criterion for a run `r` of a refinement of `original`: the
/// root completed, or the original top behavior completed at least once
/// inside it. A refined top is a Concurrent composite whose servers
/// (memories, arbiters, bus interfaces) never finish, so the refined root
/// itself never completes.
[[nodiscard]] bool top_completed(const Specification& original,
                                 const SimResult& r);

/// The comparison half of check_equivalence, for callers that already hold
/// both runs (the sweep reuses its measured run, the fuzz oracles their
/// interp-diff runs). Both results must come from the same SimConfig.
/// Fills `equivalent` and `mismatches`; the two result fields stay empty.
[[nodiscard]] EquivalenceReport compare_results(
    const Specification& original, const SimResult& original_result,
    const SimResult& refined_result, bool compare_write_traces);

}  // namespace specsyn
