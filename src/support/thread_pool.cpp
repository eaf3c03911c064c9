#include "support/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "support/common.hpp"

namespace rpt {

namespace {

// Set for the lifetime of every pool worker thread; lets fork-join helpers
// detect nested parallelism and degrade to inline execution.
thread_local bool t_in_pool_worker = false;

}  // namespace

bool ThreadPool::InWorker() noexcept { return t_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  // std::jthread joins in its destructor.
}

void ThreadPool::Submit(std::function<void()> task) {
  RPT_REQUIRE(static_cast<bool>(task), "ThreadPool::Submit: empty task");
  {
    std::unique_lock lock(mutex_);
    RPT_CHECK(!stopping_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::unique_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::unique_lock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Process-wide solver pool.
// ---------------------------------------------------------------------------

namespace {

struct SolverPoolState {
  std::mutex mutex;
  std::size_t threads = 0;  // 0 = hardware concurrency, resolved lazily
  std::unique_ptr<ThreadPool> pool;
};

SolverPoolState& GlobalSolverPool() {
  // Function-local static: constructed on first use, destroyed after main
  // (jthread destructors join the workers).
  static SolverPoolState state;
  return state;
}

std::size_t ResolveThreads(std::size_t threads) {
  return threads != 0 ? threads
                      : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool* SolverPool() {
  SolverPoolState& state = GlobalSolverPool();
  std::scoped_lock lock(state.mutex);
  const std::size_t width = ResolveThreads(state.threads);
  if (width <= 1) return nullptr;
  if (!state.pool) state.pool = std::make_unique<ThreadPool>(width);
  return state.pool.get();
}

void SetSolverThreads(std::size_t threads) {
  std::unique_ptr<ThreadPool> retired;  // joined outside the lock
  SolverPoolState& state = GlobalSolverPool();
  {
    std::scoped_lock lock(state.mutex);
    state.threads = threads;
    if (state.pool && state.pool->ThreadCount() != ResolveThreads(threads)) {
      retired = std::move(state.pool);
    }
  }
}

std::size_t SolverThreads() {
  SolverPoolState& state = GlobalSolverPool();
  std::scoped_lock lock(state.mutex);
  return ResolveThreads(state.threads);
}

}  // namespace rpt
