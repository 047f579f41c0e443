// Content-keyed LRU cache of one-tier simulation plans (sim/plan.h).
//
// Entries are keyed by the *canonical printed form* of the specification
// plus the SimConfig fields, so two Specification objects with identical
// content share one plan, and any SimConfig change misses (and thereby
// invalidates) cleanly. Printing the key costs about as much as compiling a
// refined spec, so nothing in the library consults the cache: callers that
// simulate one spec several times build one SimPlan and share it. The cache's
// only remaining caller is the benchmark under perfbench/.
//
// A plan holds `src` back-pointers into the Specification it was built
// from, so a cached plan cannot point into the caller's spec (which may die
// before the cache entry does). Each entry therefore owns a clone of the
// source spec and is built from that clone; slot indices still line up with
// any content-identical spec because plans lay out their tables in
// deterministic declaration order.
//
// Thread-safety: all public members are safe to call concurrently (one mutex
// around the index; compilation happens outside the lock, so two threads
// missing on the same key at once both compile and one result wins). The
// intended deployment is one cache per batch worker (batch::WorkerContext),
// where the mutex is uncontended.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/plan.h"
#include "sim/simulator.h"

namespace specsyn {

class ProgramCache {
 public:
  /// `capacity` bounds the number of retained programs (LRU eviction).
  explicit ProgramCache(size_t capacity = 16);

  /// Returns the plan for cfg.exec_tier alone (SimPlan::build) for a spec
  /// with this content under `cfg`, building it over an owned clone of
  /// `spec` on a miss (which validates; SpecError when invalid). Holders keep
  /// the shared_ptr for as long as they use the plan (the Simulator does this
  /// automatically).
  [[nodiscard]] std::shared_ptr<const SimPlan> get(
      const Specification& spec, const SimConfig& cfg);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] size_t size() const;
  [[nodiscard]] size_t capacity() const { return capacity_; }
  void clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const SimPlan> plan;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  /// Most-recently-used first; index_ points into this list.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace specsyn
