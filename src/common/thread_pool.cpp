#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/env.h"

namespace helios {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& global_pool() {
  // HELIOS_THREADS overrides the pool width at first use (0 = hardware
  // concurrency) — the same knob the benches use, and the only way to
  // exercise the multi-worker paths on a single-core CI machine.
  static ThreadPool pool(static_cast<std::size_t>(
      std::max<std::int64_t>(0, env_int("HELIOS_THREADS", 0))));
  return pool;
}

std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(
    std::size_t begin, std::size_t end, std::size_t max_chunks,
    std::size_t grain) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (begin >= end) return chunks;
  const std::size_t n = end - begin;
  const std::size_t chunk = std::max(
      std::max<std::size_t>(grain, 1),
      (n + max_chunks - 1) / std::max<std::size_t>(1, max_chunks));
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    chunks.emplace_back(lo, std::min(end, lo + chunk));
  }
  return chunks;
}

namespace {

// The one driver: runs fn(i) for i in [0, n) on pool helpers *and* the
// calling thread, which drains the shared index counter itself. It never
// waits on work it could run, so it cannot deadlock however deeply it nests.
void parallel_run_indexed(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Shared ownership so helper jobs that outlive the call (they may still be
  // queued when the caller has drained everything) never touch freed state.
  // They dereference `fn` only after claiming an index below n, which the
  // caller is still waiting on.
  struct Shared {
    const std::function<void(std::size_t)>* fn;
    std::size_t n;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();
  shared->fn = &fn;
  shared->n = n;
  auto drain = [shared] {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1);
      if (i >= shared->n) return;
      try {
        (*shared->fn)(i);
      } catch (...) {
        std::lock_guard lock(shared->mutex);
        if (!shared->error) shared->error = std::current_exception();
      }
      if (shared->done.fetch_add(1) + 1 == shared->n) {
        std::lock_guard lock(shared->mutex);
        shared->cv.notify_all();
      }
    }
  };
  auto& pool = global_pool();
  // A single item, or a single-threaded pool, gains nothing from dispatch:
  // the caller drains alone (on a one-core machine the handoff to the lone
  // worker costs real wall time on every call).
  const std::size_t helpers =
      pool.thread_count() > 1 ? std::min(n - 1, pool.thread_count()) : 0;
  for (std::size_t h = 0; h < helpers; ++h) pool.submit(drain);
  drain();
  // Take the error out of `shared` under the lock: a helper may still hold
  // `shared` after the last item, and it must not drop the exception's last
  // reference (and free its message) on a pool thread while the caller
  // reads what().
  std::exception_ptr error;
  {
    std::unique_lock lock(shared->mutex);
    shared->cv.wait(lock, [&] { return shared->done.load() == n; });
    error = std::move(shared->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

void parallel_run_chunks(
    const std::vector<std::pair<std::size_t, std::size_t>>& chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  parallel_run_indexed(chunks.size(), [&](std::size_t i) {
    fn(i, chunks[i].first, chunks[i].second);
  });
}

void parallel_run_tasks(std::vector<std::function<void()>> tasks) {
  parallel_run_indexed(tasks.size(), [&tasks](std::size_t i) { tasks[i](); });
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain) {
  parallel_run_chunks(
      chunk_ranges(begin, end, global_pool().thread_count() * 4, grain),
      [&fn](std::size_t, std::size_t lo, std::size_t hi) { fn(lo, hi); });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace helios
