// The benchmark's workloads. Each is a closed loop with one client (this
// process): a round starts only after the previous one finished.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one round produced. `fingerprint` is the round's output in a form
/// that must be identical for every round of a run (it is compared in
/// memory and never stored).
struct RoundResult {
  size_t items = 0;
  size_t failed = 0;
  /// Printed refined-spec lines and simulated refined-model cycles; 0 when
  /// the round does not observe them (fuzz_campaign's run_fuzz rounds).
  uint64_t refined_lines = 0;
  uint64_t sim_cycles = 0;
  std::string fingerprint;
  std::vector<std::string> errors;  ///< one line per failed item

  void fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs anew (timed as setup_s, repeated
  /// setup_reps() times; the last build is kept).
  virtual void setup() = 0;
  [[nodiscard]] virtual size_t setup_reps() const = 0;

  /// The untimed warm-up round, including the checks too costly to repeat
  /// in every timed round. Its refined_lines/sim_cycles are the reported
  /// per-round counts.
  virtual RoundResult warmup() = 0;

  /// One timed round. `traced` rounds call each module's public functions
  /// from the benchmark's own files, wrapped in trace spans; they must do
  /// the same work as an untraced round.
  virtual RoundResult round(bool traced) = 0;
};

std::unique_ptr<Workload> make_medical_sweep(uint64_t seed, size_t workers);
std::unique_ptr<Workload> make_fuzz_campaign(uint64_t seed, size_t workers);
std::unique_ptr<Workload> make_synthetic_large(uint64_t seed);

}  // namespace perfbench
