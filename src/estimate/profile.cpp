#include "estimate/profile.h"

namespace specsyn {

namespace {

uint64_t channel_key(uint32_t behavior, uint32_t slot) {
  return static_cast<uint64_t>(behavior) << 32 | slot;
}

}  // namespace

void ProfileCollector::on_bind(const Binding& b) {
  binding_ = b;
  by_id_.assign(b.behavior_names->size(), BehaviorProfile{});
  by_channel_.clear();
}

void ProfileCollector::on_var_read(uint32_t slot, uint32_t behavior,
                                   uint64_t) {
  ++by_channel_[channel_key(behavior, slot)].reads;
}

void ProfileCollector::on_var_write(uint32_t slot, uint32_t behavior, uint64_t,
                                    uint64_t) {
  ++by_channel_[channel_key(behavior, slot)].writes;
}

void ProfileCollector::on_behavior_start(uint32_t behavior, uint64_t,
                                         uint64_t time) {
  BehaviorProfile& p = by_id_[behavior];
  if (p.activations == 0) p.first_start = time;
  ++p.activations;
}

void ProfileCollector::on_behavior_end(uint32_t behavior, uint64_t,
                                       uint64_t time) {
  by_id_[behavior].last_end = time;
}

void ProfileCollector::on_run_end(uint64_t) {
  const std::vector<std::string>& names = *binding_.behavior_names;
  behaviors_.clear();
  for (size_t id = 0; id < by_id_.size(); ++id) {
    if (by_id_[id].activations != 0) behaviors_.emplace(names[id], by_id_[id]);
  }
  accesses_.clear();
  for (const auto& [key, counts] : by_channel_) {
    accesses_.emplace(
        std::pair(names[key >> 32], binding_.vars->name_of(key & 0xffffffffu)),
        counts);
  }
}

ProfileResult profile_spec(const Specification& spec, SimConfig cfg) {
  Simulator sim(spec, cfg);
  ProfileCollector collector;
  sim.add_slot_observer(&collector);
  ProfileResult result;
  result.sim = sim.run();
  result.behaviors = collector.behaviors();
  result.accesses = collector.accesses();
  return result;
}

}  // namespace specsyn
