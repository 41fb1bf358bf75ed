// Shared worker-pool machinery.
//
// parallel_for_index: index-queue fan-out for embarrassingly parallel,
// deterministic work: per-context routing (route/router.cpp) and
// multi-seed placement restarts (place/placer.cpp) both drain [0, count)
// through an atomic counter and merge results by index, so the output
// never depends on worker timing.  Centralized here because the subtle
// parts — the thread-creation fallback and the caller-thread
// participation — must not diverge between call sites.
//
// WorkerPool: the long-running counterpart for services (serve/daemon):
// a fixed set of threads draining a task queue that outlives any single
// fan-out.  Shares parallel_for_index's degradation policy: if no thread
// can be created, tasks run inline on the submitting thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace mcfpga {

/// Resolves a thread-count option: 0 means one per hardware thread, and
/// the result is clamped to [1, max_useful].
inline std::size_t effective_threads(std::size_t requested,
                                     std::size_t max_useful) {
  std::size_t n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) {
      n = 1;
    }
  }
  return std::max<std::size_t>(1, std::min(n, max_useful));
}

/// Runs a worker body over every index in [0, count) on up to `workers`
/// threads (the calling thread included).  `make_worker()` is invoked once
/// per participating thread and must return a callable taking the index —
/// the place to hang worker-local scratch (e.g. one RouterCore per
/// thread).  The body must not throw: capture exceptions per index and
/// rethrow in index order after this returns, so failures are as
/// deterministic as results.
template <typename MakeWorker>
void parallel_for_index(std::size_t count, std::size_t workers,
                        MakeWorker&& make_worker) {
  if (workers <= 1 || count <= 1) {
    auto body = make_worker();
    for (std::size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&]() {
    auto body = make_worker();
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) {
        break;
      }
      body(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      pool.emplace_back(work);
    } catch (const std::system_error&) {
      // Thread creation failed (resource exhaustion).  The shared queue
      // still drains fully on the caller + already-started workers, so
      // degrade instead of unwinding past joinable threads.
      break;
    }
  }
  work();
  for (auto& t : pool) {
    t.join();
  }
}

/// Persistent FIFO task pool: `workers` threads drain submitted tasks
/// until shutdown().  Tasks must not throw (catch inside the task; an
/// escaped exception terminates, as from any detached thread body).
/// shutdown() stops accepting work, DRAINS everything already queued,
/// then joins — so a submitted task always runs exactly once, which lets
/// callers park per-task completion state behind it without a "dropped on
/// the floor" case.  When no thread can be created (resource exhaustion),
/// submit() degrades to running the task inline on the caller.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t workers) {
    threads_.reserve(std::max<std::size_t>(1, workers));
    for (std::size_t w = 0; w < std::max<std::size_t>(1, workers); ++w) {
      try {
        threads_.emplace_back([this] { worker_loop(); });
      } catch (const std::system_error&) {
        break;  // degrade: fewer workers (possibly zero -> inline mode)
      }
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool() { shutdown(); }

  std::size_t num_workers() const { return threads_.size(); }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      MCFPGA_REQUIRE(!stopping_, "submit on a shut-down WorkerPool");
      if (!threads_.empty()) {
        queue_.push_back(std::move(task));
        cv_.notify_one();
        return;
      }
    }
    task();  // inline fallback: no worker thread could be created
  }

  /// Idempotent: drains the queue on the workers, then joins them.
  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;  // stopping_ and nothing left to drain
        }
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

}  // namespace mcfpga
