// Work-stealing thread pool for batch execution of independent
// refine -> lower -> simulate -> check jobs (the engine behind
// `specsyn fuzz --jobs` and `specsyn sweep`).
//
// Shape:
//   * a fixed worker count, chosen at construction (threads are started once
//     and parked between batches),
//   * one double-ended job queue per worker — submission deals job indices
//     round-robin, a worker pops its own queue LIFO and steals FIFO from the
//     longest peer queue when its own runs dry, so a skewed batch (one slow
//     refinement config, many fast ones) still keeps every worker busy,
//   * a bounded aggregate queue: for_each blocks the submitting thread when
//     `queue_bound` jobs are pending, so a million-job sweep never
//     materializes a million queue nodes,
//   * per-worker arenas: each worker owns a ProgramCache (and, via the
//     worker index, any caller-side scratch), so the hot path never shares
//     mutable state between workers. Immutable state, such as one SimPlan
//     (sim/plan.h) read by every exploration job, is shared freely.
//
// Determinism contract: jobs receive their dense batch index and must write
// results only into per-index slots (run_batch below does this). Job
// *scheduling* order varies with the worker count and timing; job *results*
// must not — everything a job reads is either owned by the job or shared
// const (see DESIGN.md "Parallel execution"). Under that contract the merged
// result vector is bit-identical for any --jobs value.
//
// Locking is deliberately coarse (one mutex for queues + batch lifecycle):
// jobs are milliseconds of simulation work, so queue traffic is cold. The
// point of the per-worker deques is steal locality, not lock-free speed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
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
  /// Dense worker index, 0 .. workers()-1 (0 for inline execution).
  size_t worker = 0;
  /// The worker's own plan cache; never shared between workers. No library
  /// code consults it (a job that re-simulates one spec runs from a shared
  /// SimPlan instead); the benchmark under perfbench/ still does.
  ProgramCache* programs = nullptr;
};

class ThreadPool {
 public:
  /// Starts `workers` threads (at least 1). `queue_bound` caps the number of
  /// queued-but-unclaimed jobs across all workers; submission blocks at the
  /// bound.
  explicit ThreadPool(size_t workers, size_t queue_bound = 1024);
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
    std::deque<size_t> queue;  // guarded by mu_
    ProgramCache programs;
    std::thread thread;
  };

  void worker_main(size_t self);
  /// Pops one job for worker `self` (own back first, then steal from the
  /// longest peer queue's front). Caller holds mu_. Returns false if no job
  /// is pending anywhere.
  bool claim_job(size_t self, size_t& job);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: a job or stop_ is available
  std::condition_variable space_cv_;  // submitter: queue space freed
  std::condition_variable done_cv_;   // submitter: batch complete

  std::vector<std::unique_ptr<Worker>> workers_;
  size_t queue_bound_;
  size_t queued_ = 0;     // jobs submitted but not yet claimed
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
