// Thread pool for batch execution of independent
// refine -> lower -> simulate -> check jobs (the engine behind
// `specsyn fuzz --jobs`, `specsyn sweep` and `check --explore-schedules`).
//
// Shape:
//   * a fixed worker count, chosen at construction (threads are started once
//     and parked between batches),
//   * one shared job counter: a batch is always the dense range [0, jobs),
//     so for_each publishes the range and each worker claims the highest
//     unclaimed index until the range is used up. A skewed batch (one slow
//     refinement config, many fast ones) keeps every worker busy because a
//     worker that finishes early simply claims again,
//   * per-worker arenas: each worker owns a ProgramCache (and, via the
//     worker index, any caller-side scratch), so the hot path never shares
//     mutable state between workers. Immutable state, such as one SimPlan
//     (sim/plan.h) read by every exploration job, is shared freely.
//
// Determinism contract: jobs receive their dense batch index and must write
// results only into per-index slots (run_batch below does this). Which
// worker runs which job varies with the worker count and timing; job
// *results* must not — everything a job reads is either owned by the job or
// shared const (see DESIGN.md "Parallel execution"). Under that contract the
// merged result vector is bit-identical for any --jobs value.
//
// Locking is deliberately coarse (one mutex for the counter and the batch
// lifecycle): jobs are milliseconds of simulation work, so claim traffic is
// cold.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/program_cache.h"

namespace specsyn::batch {

/// Per-worker execution context handed to every job.
struct WorkerContext {
  /// Dense worker index, 0 .. workers()-1.
  size_t worker = 0;
  /// The worker's own plan cache; never shared between workers. No library
  /// code consults it (a job that re-simulates one spec runs from a shared
  /// SimPlan instead); the benchmark under perfbench/ still does.
  ProgramCache* programs = nullptr;
};

class ThreadPool {
 public:
  /// Starts `workers` threads (at least 1).
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] size_t workers() const { return workers_.size(); }

  /// Runs fn(job_index, worker_context) for every job in [0, jobs) and
  /// blocks until all complete. Not reentrant. If jobs throw, the exception
  /// thrown by the lowest job index is rethrown after the batch drains (so
  /// the surfaced error is independent of scheduling).
  void for_each(size_t jobs,
                const std::function<void(size_t, WorkerContext&)>& fn);

  /// Worker count to use when the caller asked for "all cores".
  [[nodiscard]] static size_t default_workers();

 private:
  struct Worker {
    ProgramCache programs;
    std::thread thread;
  };

  void worker_main(size_t self);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a batch or stop_ is posted
  std::condition_variable done_cv_;  // submitter: batch complete

  std::vector<std::unique_ptr<Worker>> workers_;
  size_t claimed_ = 0;    // jobs handed to a worker this batch
  size_t completed_ = 0;  // jobs finished (ok or error) this batch
  size_t total_ = 0;      // jobs in the active batch
  bool active_ = false;
  bool stop_ = false;
  const std::function<void(size_t, WorkerContext&)>* fn_ = nullptr;

  std::exception_ptr error_;
  size_t error_job_ = SIZE_MAX;  // lowest failing job index
};

/// Deterministic merge helper: runs `fn(job, ctx)` for every job on the pool
/// and returns the results ordered by job index — the output is identical
/// for any worker count.
template <typename R, typename Fn>
std::vector<R> run_batch(ThreadPool& pool, size_t jobs, Fn&& fn) {
  std::vector<R> results(jobs);
  pool.for_each(jobs, [&](size_t job, WorkerContext& ctx) {
    results[job] = fn(job, ctx);
  });
  return results;
}

}  // namespace specsyn::batch
