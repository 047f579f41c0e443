// Content-keyed LRU cache of compiled execution plans (sim/program.h,
// sim/bytecode.h).
//
// Entries are keyed by the *canonical printed form* of the specification
// plus the SimConfig fields, so two Specification objects with identical
// content share one plan, and any SimConfig change misses (and thereby
// invalidates) cleanly. Printing the key costs about as much as compiling a
// refined spec, so sweeps and the fuzz oracles do not consult the cache:
// they simulate each spec once per point or seed and reuse the result. The
// remaining in-tree user is schedule exploration on a pool
// (`check --explore-schedules --jobs N`), through the workers' caches.
//
// A Program holds `src` back-pointers into the Specification it was compiled
// from, so a cached Program cannot point into the caller's spec (which may
// die before the cache entry does). Each entry therefore owns a clone of the
// source spec and compiles against that clone; slot indices still line up
// with any content-identical spec because the Simulator's VarTable /
// SignalTable are built in deterministic declaration order.
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

#include "sim/simulator.h"

namespace specsyn {

class BytecodeProgram;

/// A compiled execution plan together with the spec clone it points into.
/// Exactly one of `program` (lowered tier) / `bytecode` (bytecode tier) is
/// set, per the SimConfig the entry was fetched under. Holders keep the
/// shared_ptr for as long as they use the plan (the Simulator does this
/// automatically).
struct CachedProgram {
  std::shared_ptr<const Specification> source;
  std::shared_ptr<const Program> program;
  std::shared_ptr<const BytecodeProgram> bytecode;
};

class ProgramCache {
 public:
  /// `capacity` bounds the number of retained programs (LRU eviction).
  explicit ProgramCache(size_t capacity = 16);

  /// Returns the compiled plan (per cfg.exec_tier) for a spec with this
  /// content under `cfg`, compiling on miss. `spec` must be valid
  /// (validate_or_throw).
  [[nodiscard]] std::shared_ptr<const CachedProgram> get(
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
    std::shared_ptr<const CachedProgram> cached;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  /// Most-recently-used first; index_ points into this list.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace specsyn
