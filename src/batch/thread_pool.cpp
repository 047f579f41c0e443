#include "batch/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "support/diagnostics.h"
#include "telemetry/telemetry.h"

namespace specsyn::batch {

ThreadPool::ThreadPool(size_t workers, size_t queue_bound)
    : queue_bound_(std::max<size_t>(queue_bound, 1)) {
  const size_t n = std::max<size_t>(workers, 1);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads start only after the Worker vector is fully built: worker_main
  // scans every peer queue when stealing.
  for (size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

size_t ThreadPool::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool ThreadPool::claim_job(size_t self, size_t& job) {
  std::deque<size_t>& own = workers_[self]->queue;
  if (!own.empty()) {
    job = own.back();  // LIFO on the own queue: best cache locality
    own.pop_back();
    return true;
  }
  // Steal from the front (FIFO) of the longest peer queue — the classic
  // work-stealing discipline: thieves take the oldest, coldest work.
  size_t victim = SIZE_MAX;
  size_t longest = 0;
  for (size_t w = 0; w < workers_.size(); ++w) {
    const size_t len = workers_[w]->queue.size();
    if (len > longest) {
      longest = len;
      victim = w;
    }
  }
  if (victim == SIZE_MAX) return false;
  job = workers_[victim]->queue.front();
  workers_[victim]->queue.pop_front();
  // Which worker steals from whom depends on timing, so every steal metric
  // is scheduling-dependent by construction.
  SPECSYN_TM_COUNT("pool.steals", telemetry::Stability::Sched, 1);
  return true;
}

void ThreadPool::worker_main(size_t self) {
  const bool tm = telemetry::enabled();
  if (tm)
    telemetry::set_lane("worker " + std::to_string(self),
                        static_cast<int>(self) + 1);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || queued_ > 0; });
    if (stop_) return;
    size_t job = 0;
    if (!claim_job(self, job)) continue;
    --queued_;
    space_cv_.notify_one();

    const auto* fn = fn_;
    lock.unlock();
    WorkerContext ctx{self, &workers_[self]->programs};
    std::exception_ptr err;
    std::chrono::steady_clock::time_point jt0;
    if (tm) jt0 = std::chrono::steady_clock::now();
    try {
      (*fn)(job, ctx);
    } catch (...) {
      err = std::current_exception();
    }
    if (tm) {
      const auto busy = std::chrono::steady_clock::now() - jt0;
      const std::string who = "pool.worker." + std::to_string(self);
      // Total job count is the matrix/seed count (stable); which worker ran
      // each job and for how long is not.
      telemetry::count("pool.jobs", telemetry::Stability::Stable, 1);
      telemetry::count(who + ".jobs", telemetry::Stability::Sched, 1);
      telemetry::count(
          who + ".busy_ns", telemetry::Stability::Time,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
                  .count()));
    }
    lock.lock();
    if (err && job < error_job_) {
      error_job_ = job;
      error_ = err;
    }
    if (++completed_ == total_) done_cv_.notify_all();
  }
}

void ThreadPool::for_each(
    size_t jobs, const std::function<void(size_t, WorkerContext&)>& fn) {
  if (jobs == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  if (active_) {
    throw SpecError("ThreadPool::for_each is not reentrant");
  }
  active_ = true;
  fn_ = &fn;
  total_ = jobs;
  completed_ = 0;
  error_ = nullptr;
  error_job_ = SIZE_MAX;

  size_t next_worker = 0;
  for (size_t job = 0; job < jobs; ++job) {
    space_cv_.wait(lock, [&] { return queued_ < queue_bound_; });
    workers_[next_worker]->queue.push_back(job);
    next_worker = (next_worker + 1) % workers_.size();
    ++queued_;
    // Depth as seen at each submission: how far ahead of the workers the
    // producer runs (bounded by queue_bound_).
    SPECSYN_TM_OBSERVE("pool.queue_depth", telemetry::Stability::Sched,
                       queued_);
    work_cv_.notify_one();
  }
  done_cv_.wait(lock, [&] { return completed_ == total_; });

  active_ = false;
  fn_ = nullptr;
  total_ = 0;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace specsyn::batch
