#include "batch/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "support/diagnostics.h"
#include "telemetry/telemetry.h"

namespace specsyn::batch {

ThreadPool::ThreadPool(size_t workers) {
  const size_t n = std::max<size_t>(workers, 1);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->thread = std::thread([this, i] { worker_main(i); });
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

void ThreadPool::worker_main(size_t self) {
  const bool tm = telemetry::enabled();
  if (tm)
    telemetry::set_lane("worker " + std::to_string(self),
                        static_cast<int>(self) + 1);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || claimed_ < total_; });
    if (stop_) return;
    // Claims run from the top of the range down. Either order is correct;
    // on perfbench's fuzz_campaign (800 seeds, 4 workers on a 4-core host)
    // descending claims kept peak RSS about 2 MB (4%) below ascending ones.
    const size_t job = total_ - ++claimed_;
    const auto* fn = fn_;
    // workers_ is fully built before any batch is posted, so reading this
    // worker's slot needs no lock.
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
  claimed_ = 0;
  completed_ = 0;
  error_ = nullptr;
  error_job_ = SIZE_MAX;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return completed_ == total_; });

  active_ = false;
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace specsyn::batch
