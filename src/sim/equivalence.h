// Functional-equivalence checking between a specification and its refined
// implementation model.
//
// The paper's correctness requirement for every refinement procedure is that
// the implementation model be "functionally equivalent to the original
// model". One definition of what a run produced serves every check: its
// Outcome — status, liveness, final variable values and per-variable
// observable write sequences, without timestamps (refinement changes timing
// by design). A refined run's outcome is projected onto the original's
// variables; bus registers and handshake scratch are not outcomes.
//
//   * Equivalence (check_equivalence, compare_results): both runs quiesce
//     and their projected outcomes are equal.
//   * Inclusion (analysis/schedules check_inclusion): every projected
//     refined outcome over the explored schedules is one the original has.
//
// describe_differences is the one renderer of a difference.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.h"

namespace specsyn {

/// Timing-free observable outcome of one run.
struct Outcome {
  SimResult::Status status = SimResult::Status::Quiescent;
  /// The top behavior completed (top_completed for a refined run).
  bool root_completed = false;
  /// Final value of every variable (by unique name).
  std::map<std::string, uint64_t> final_vars;
  /// Observable write value sequences, per variable.
  std::map<std::string, std::vector<uint64_t>> writes;

  friend bool operator==(const Outcome&, const Outcome&) = default;

  /// Canonical one-line rendering, for set membership and report text.
  [[nodiscard]] std::string digest() const;
};

/// The outcome of a finished run `r`. A non-null `original` marks `r` as a
/// run of its refinement: root completion is then top_completed, and the
/// variables and writes are restricted to the original's variables.
[[nodiscard]] Outcome outcome_of(const SimResult& r,
                                 const Specification* original = nullptr);

/// Every way `b` differs from `a`, one line each, in this order: status,
/// liveness, final values (missing variables included) in `spec`'s
/// declaration order, then observable write sequences by name. Both outcomes
/// must range over `spec`'s variables (outcome_of of a run of `spec` or of
/// its refinement); then the result is empty iff a == b. `a_name` and
/// `b_name` name the two runs in the text, and `spec`'s top behavior is the
/// one root_completed records.
[[nodiscard]] std::vector<std::string> describe_differences(
    const Specification& spec, const Outcome& a, const Outcome& b,
    std::string_view a_name = "original", std::string_view b_name = "refined");

struct EquivalenceOptions {
  SimConfig config;
  /// Compare per-variable observable write sequences (not just final
  /// values). Callers set it from keeps_write_sequences(protocol)
  /// (refine/types.h). The field stays, rather than taking the protocol,
  /// only because perfbench sets it; it goes with the Model4 x bs
  /// atomicity fix, after which every protocol keeps its write sequences.
  bool compare_write_traces = true;
  /// Run the two simulations concurrently (the original on a spawned thread,
  /// the refined on the caller's); the report is identical to a serial
  /// run. No library code sets it; it stays only because perfbench does.
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
/// both runs (the sweep reuses its measured run and builds the original's
/// outcome once, the fuzz oracles reuse their interp-diff runs, `refine
/// --verify` reuses the run its profile made).
/// `original_outcome` is outcome_of(original's run); both runs must come
/// from the same SimConfig. Fills `equivalent` and `mismatches`; the two
/// result fields stay empty.
[[nodiscard]] EquivalenceReport compare_results(
    const Specification& original, const Outcome& original_outcome,
    const SimResult& refined_result, bool compare_write_traces);

}  // namespace specsyn
