// Fixed-size thread pool for the benchmark harness, and for the online
// service's longer shard drains (short ones run on the producer that
// scheduled them, src/service/service.hpp).
//
// The paper's evaluation is embarrassingly parallel across seeds: every
// seed builds its own trace and runs run_comparison independently, and the
// bench code only needs the per-seed results back *in seed order* (the
// Welford accumulators in support/stats.hpp are order-sensitive). The pool
// therefore exposes parallel_for, an indexed fork-join helper: workers pull
// indices from a shared counter, write into caller-owned slots, and the
// caller resumes only when every index has run. Results are bit-identical
// to a serial loop regardless of scheduling because each index touches only
// its own slot and the caller folds the slots serially afterwards.
//
// No work stealing, no task graph — submit() plus the indexed loop is all
// the sweep harness needs, and a plain mutex/condvar queue keeps the
// determinism argument auditable.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sdem {

class ThreadPool {
 public:
  /// Spawns `threads` workers; values < 1 are clamped to 1. A 1-thread
  /// pool is still a real pool (one worker), so code paths stay identical
  /// between --jobs 1 and --jobs N.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one task. Tasks must not submit to the same pool and wait on
  /// the result (the pool has no nesting support; the sweep never needs it).
  void submit(std::function<void()> fn);

  /// Block until every submitted task has finished. Rethrows the first
  /// exception any task threw (the rest are dropped).
  void wait_idle();

  /// Run fn(i) for i in [0, n) across the workers and block until all
  /// complete. fn must be safe to call concurrently for distinct i.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static int hardware_jobs();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

/// A (operating point, seed) sweep: every cell is an independent work item,
/// so small-seed sweeps with many points (fig7's 64 cells, table4's single
/// point) still occupy the whole pool. Serial when pool is null — the
/// reference execution the parallel path must match bit-for-bit.
/// `fn(point, seed, slot)` receives the 0-based point index, the 1-based
/// seed (what the generators consume), and the flat point-major slot index
/// point*seeds + (seed-1) — the exact order the serial reference loop
/// visits, so caller-side folds over slots are bit-identical at any job
/// count.
template <typename Fn>
void parallel_for_grid(ThreadPool* pool, int points, int seeds, Fn&& fn) {
  if (points <= 0 || seeds <= 0) return;
  const std::size_t total =
      static_cast<std::size_t>(points) * static_cast<std::size_t>(seeds);
  if (pool == nullptr) {
    for (std::size_t i = 0; i < total; ++i) {
      fn(i / static_cast<std::size_t>(seeds),
         static_cast<std::uint64_t>(i % static_cast<std::size_t>(seeds)) + 1,
         i);
    }
    return;
  }
  pool->parallel_for(total, [&fn, seeds](std::size_t i) {
    fn(i / static_cast<std::size_t>(seeds),
       static_cast<std::uint64_t>(i % static_cast<std::size_t>(seeds)) + 1, i);
  });
}

}  // namespace sdem
