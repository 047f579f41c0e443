#include "sim/program_cache.h"

#include <utility>

#include "printer/printer.h"
#include "sim/plan.h"
#include "telemetry/telemetry.h"

namespace specsyn {

namespace {

// The cache key is the canonical printed spec plus every SimConfig field
// that could influence lowering or execution-plan reuse, plus the execution
// tier (a lowered Program and a BytecodeProgram must never alias one entry).
// stmt_cost and signal_delay do not affect compilation today, but folding
// them in makes "invalidate on SimConfig changes" hold by construction
// rather than by auditing the compiler.
std::string make_key(const Specification& spec, const SimConfig& cfg) {
  std::string key = print(spec);
  key += '\x01';
  key += std::to_string(cfg.stmt_cost);
  key += ',';
  key += std::to_string(cfg.signal_delay);
  key += ',';
  key += exec_tier_name(cfg.exec_tier);
  return key;
}

}  // namespace

ProgramCache::ProgramCache(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

std::shared_ptr<const SimPlan> ProgramCache::get(
    const Specification& spec, const SimConfig& cfg) {
  std::string key = make_key(spec, cfg);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
      ++stats_.hits;
      SPECSYN_TM_COUNT("cache.l1.hit", telemetry::Stability::Sched, 1);
      return it->second->plan;
    }
  }

  // Miss: build outside the lock — that is the expensive part; a
  // concurrent miss on the same key just builds twice and one entry wins.
  // The plan is built over a clone of the spec, and the pointer handed out
  // shares ownership of both, so cached plans never point into a caller's
  // (possibly shorter-lived) Specification.
  struct Owned {
    Specification spec;
    std::shared_ptr<const SimPlan> plan;
  };
  auto owned = std::make_shared<Owned>();
  owned->spec = spec.clone();
  owned->plan = SimPlan::build(owned->spec, cfg.exec_tier);
  std::shared_ptr<const SimPlan> plan(owned, owned->plan.get());

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {  // racing thread inserted first; reuse its entry
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    SPECSYN_TM_COUNT("cache.l1.hit", telemetry::Stability::Sched, 1);
    return it->second->plan;
  }
  ++stats_.misses;
  SPECSYN_TM_COUNT("cache.l1.miss", telemetry::Stability::Sched, 1);
  lru_.push_front(Entry{key, plan});
  index_.emplace(std::move(key), lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    SPECSYN_TM_COUNT("cache.l1.evict", telemetry::Stability::Sched, 1);
  }
  return plan;
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace specsyn
