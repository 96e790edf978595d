// Minimal fixed-size thread pool with blocking, caller-draining drivers.
//
// The heavy kernels (GBDT histogram builds, trace generation per cluster,
// backtests) are embarrassingly parallel over ranges; parallel_for splits
// [begin, end) into contiguous chunks and runs them on the pool. The pool is
// shared process-wide via global_pool() so nested code reuses threads instead
// of oversubscribing the (possibly small) machine.
//
// Every driver here (parallel_for*, parallel_run_chunks, parallel_run_tasks)
// is a thin wrapper over one loop: the items go on a shared index counter,
// up to thread_count() pool helpers are enqueued to drain it, and the
// *calling thread drains it too*. The caller never waits
// on an item it could run itself, so the drivers nest freely — a driver
// called from inside a pool task finishes even when every other worker is
// blocked (trace generation under the sweep engine, GBDT fits under the
// forecaster fan-out). A single item or a 1-thread pool runs on the caller
// alone.
//
// Thread-safety: every member and free function here is safe to call from
// any thread, including pool workers. The *callbacks* handed to the drivers
// run concurrently — they must synchronize any shared mutable state
// themselves.
//
// Determinism: the drivers fix only *which* chunks exist ([begin, end) split
// by grain/thread-count) — chunk *scheduling* is nondeterministic. Callers
// that need bit-identical results across thread counts therefore make each
// chunk's work order-independent (integer sums, disjoint writes) and combine
// per-chunk results in chunk order; see ml/gbdt.h and sim/ for the contracts
// built on top.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace helios {

class ThreadPool {
 public:
  /// `threads == 0` uses hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a fire-and-forget task. It must not throw: the drivers below
  /// catch inside the task and hand the exception to their caller.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide pool (lazily constructed, sized to hardware concurrency;
/// the HELIOS_THREADS environment variable overrides the width at first use).
ThreadPool& global_pool();

/// Runs fn(i) for i in [begin, end) across the global pool and blocks until
/// done. Chunks are contiguous; `grain` is the minimum chunk size. Every
/// chunk runs; the first exception from fn then propagates to the caller.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1024);

/// Runs fn(chunk_begin, chunk_end) over contiguous chunks — useful when the
/// body wants to maintain per-chunk scratch state.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain = 1024);

/// Splits [begin, end) into at most `max_chunks` contiguous chunks of at
/// least `grain` each. Lets callers pre-size per-chunk scratch (partial
/// sums, shards) before fanning out with parallel_run_chunks.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(
    std::size_t begin, std::size_t end, std::size_t max_chunks,
    std::size_t grain = 1);

/// Runs fn(chunk_index, lo, hi) for each range on the global pool and blocks
/// until done. Exceptions propagate as for parallel_for.
void parallel_run_chunks(
    const std::vector<std::pair<std::size_t, std::size_t>>& chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Runs a set of heterogeneous tasks to completion on the global pool and
/// blocks until every task finished. Used by the VC-sharded simulator, whose
/// shards are uneven and may themselves run under a parallel driver. The
/// first exception propagates after all tasks have finished.
void parallel_run_tasks(std::vector<std::function<void()>> tasks);

}  // namespace helios
