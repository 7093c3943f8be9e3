#include "support/thread_pool.hpp"

#include <atomic>
#include <memory>

#include "obs/obs.hpp"

namespace sdem {

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(fn));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // One shared cursor instead of n queue entries: a worker claims the next
  // index with a fetch_add, so scheduling order never decides *which* work
  // runs, only *when*.
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t lanes =
      std::min(n, static_cast<std::size_t>(size()));
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    submit([cursor, n, &fn] {
      for (std::size_t i = cursor->fetch_add(1); i < n;
           i = cursor->fetch_add(1)) {
        fn(i);
      }
    });
  }
  wait_idle();
}

int ThreadPool::hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const std::uint64_t idle0 = obs::now_ns();
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      SDEM_OBS_RUNTIME_DIST("thread_pool/worker_idle_s",
                            static_cast<double>(obs::now_ns() - idle0) * 1e-9);
      task = std::move(queue_.front());
      queue_.pop();
    }
    try {
      SDEM_OBS_RUNTIME_COUNT("thread_pool/tasks_executed", 1);
      SDEM_OBS_TIMER("thread_pool/task");
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace sdem
