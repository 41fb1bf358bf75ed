// Shared fan-out machinery.
//
// parallel_for_index: index-queue fan-out for embarrassingly parallel,
// deterministic work: per-context routing (route/router.cpp) and
// multi-seed placement restarts (place/placer.cpp) both drain [0, count)
// through an atomic counter and merge results by index, so the output
// never depends on worker timing.  Centralized here because the subtle
// parts — the thread-creation fallback and the caller-thread
// participation — must not diverge between call sites.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <system_error>
#include <thread>
#include <vector>

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

}  // namespace mcfpga
