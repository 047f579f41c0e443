// Dynamic profiling of a specification via simulation.
//
// The paper's channel transfer rate ([13], quoted in Section 5) is "the rate
// at which data is sent during the lifetime of the behaviors communicating
// over the channel". We obtain the dynamic quantities by simulating the
// *original* specification once and recording, per (behavior, variable)
// channel, the number of read/write accesses, and per behavior its lifetime
// (first start to last completion).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"

namespace specsyn {

struct BehaviorProfile {
  uint64_t activations = 0;
  uint64_t first_start = 0;
  uint64_t last_end = 0;

  /// Lifetime in cycles (paper's definition: first activation to last
  /// completion; at least 1 to keep rates finite).
  [[nodiscard]] uint64_t lifetime() const {
    return last_end > first_start ? last_end - first_start : 1;
  }
};

struct AccessCounts {
  uint64_t reads = 0;
  uint64_t writes = 0;

  [[nodiscard]] uint64_t total() const { return reads + writes; }
};

/// Observer that accumulates the profile; attach to any Simulator. Counts
/// are kept per (behavior id, variable slot) during the run and keyed by
/// name when it ends.
class ProfileCollector : public SlotObserver {
 public:
  void on_bind(const Binding& b) override;
  void on_var_read(uint32_t slot, uint32_t behavior, uint64_t time) override;
  void on_var_write(uint32_t slot, uint32_t behavior, uint64_t time,
                    uint64_t value) override;
  void on_behavior_start(uint32_t behavior, uint64_t process,
                         uint64_t time) override;
  void on_behavior_end(uint32_t behavior, uint64_t process,
                       uint64_t time) override;
  void on_run_end(uint64_t end_time) override;

  /// Per behavior name; filled when the run ends.
  [[nodiscard]] const std::map<std::string, BehaviorProfile>& behaviors() const {
    return behaviors_;
  }
  /// (behavior, var) -> counts; filled when the run ends.
  [[nodiscard]] const std::map<std::pair<std::string, std::string>,
                               AccessCounts>&
  accesses() const {
    return accesses_;
  }

 private:
  Binding binding_;  // valid from on_bind through on_run_end
  std::vector<BehaviorProfile> by_id_;
  std::unordered_map<uint64_t, AccessCounts> by_channel_;  // id << 32 | slot

  std::map<std::string, BehaviorProfile> behaviors_;
  std::map<std::pair<std::string, std::string>, AccessCounts> accesses_;
};

struct ProfileResult {
  std::map<std::string, BehaviorProfile> behaviors;
  std::map<std::pair<std::string, std::string>, AccessCounts> accesses;
  SimResult sim;

  /// Dynamic (behavior, var) channel count.
  [[nodiscard]] size_t channel_count() const { return accesses.size(); }
};

/// Simulates `spec` once and returns its profile.
[[nodiscard]] ProfileResult profile_spec(const Specification& spec,
                                         SimConfig cfg = {});

}  // namespace specsyn
