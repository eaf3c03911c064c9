// Minimal work-stealing-free thread pool with chunked fork-join helpers.
//
// The one pool class of the library. BatchRunner runs its cells on a
// ThreadPool of its own, and the process-wide solver pool (SolverPool())
// serves the one intra-instance parallel kernel, the level-synchronous
// Multiple-NoD DP (TreeBuilder::Build is serial). Follows the Core
// Guidelines concurrency rules: RAII-joined threads (CP.23/CP.25), no
// detached threads, data shared between tasks is owned by the caller and
// partitioned by index range so tasks never write to the same element
// (CP.2/CP.3).
//
// Parallel loops go through ParallelForChunked: the body receives an index
// *range* [begin, end), so there is no per-index std::function dispatch, and
// each call tracks its own completion state — concurrent ParallelForChunked
// calls may safely share one pool (each waits only for its own chunks).
//
// Ownership: a ThreadPool owns its workers (joined in the destructor;
// pending tasks complete first). The process-wide SolverPool() is owned by
// this module — solvers never own threads, they borrow the shared pool and
// SetSolverThreads() rebuilds it between solves. Data touched by tasks is
// owned by the caller and must outlive the Wait()/ParallelForChunked call
// that uses it.
//
// Thread-safety: Submit/Wait and ParallelForChunked may be called from any
// thread, including concurrently; chunk bodies must only write to disjoint
// index ranges (CP.2). SetSolverThreads is NOT safe while a solve is in
// flight — call it between solves.
//
// Determinism: chunk boundaries depend only on (count, grain, thread
// count), never on execution order, so a body that writes out[i] per index
// is byte-identical at any width; reductions must fold chunk-local state in
// chunk order (or use order-exact operations: integer sums, min/max).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/common.hpp"

namespace rpt {

/// Fixed-size thread pool. Tasks are std::function<void()>; exceptions thrown
/// by tasks are captured and rethrown from Wait() (first one wins).
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers. Pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished; rethrows the first task
  /// exception if any task failed.
  void Wait();

  /// Number of worker threads.
  [[nodiscard]] std::size_t ThreadCount() const noexcept { return workers_.size(); }

  /// True iff the calling thread is a worker of some ThreadPool (a
  /// BatchRunner cell or a solver-pool chunk). Fork-join helpers use this to
  /// degrade to inline execution instead of deadlocking on a bounded pool or
  /// oversubscribing already-busy cores.
  [[nodiscard]] static bool InWorker() noexcept;

 private:
  void WorkerLoop();

  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  // Declared last, so it is destroyed first: the jthreads join before the
  // mutex and condition variables a finishing worker still uses are gone.
  std::vector<std::jthread> workers_;
};

namespace detail {

/// Completion state shared by the chunks of one ParallelForChunked call, so
/// concurrent calls on a shared pool wait only for their own chunks and an
/// exception is rethrown exactly once, at the call site that owns the loop.
struct ForkJoinState {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t pending = 0;
  std::exception_ptr error;

  void Record(std::exception_ptr e) {
    std::scoped_lock lock(mutex);
    if (!error) error = std::move(e);
  }
  void Finish() {
    std::scoped_lock lock(mutex);
    if (--pending == 0) cv.notify_one();
  }
};

}  // namespace detail

/// Runs body(begin, end) over consecutive chunks covering [0, count).
///
/// Chunks are at least `grain` indices wide (the last one may be shorter), so
/// `grain` bounds the scheduling overhead per unit of work; beyond that the
/// range splits into ~2 chunks per worker for load balance. The calling
/// thread executes the first chunk itself and then blocks until the rest
/// finish. Degrades to one inline body(0, count) call — still covering every
/// index exactly once — when `pool` is null, when the range fits one chunk,
/// or when called from inside a pool worker (nested parallelism would
/// deadlock a bounded pool).
///
/// Exceptions: if one or more chunks throw, exactly one exception (the first
/// recorded) is rethrown here after all chunks completed, so references
/// captured by the body never dangle.
///
/// Determinism: chunk boundaries depend only on (count, grain, thread
/// count), never on execution order. Callers that reduce should accumulate
/// per chunk-local state and fold serially afterwards (or use operations
/// that are exact under reordering, e.g. integer sums and min/max).
template <typename Body>
void ParallelForChunked(ThreadPool* pool, std::size_t count, std::size_t grain, Body&& body) {
  RPT_REQUIRE(grain >= 1, "ParallelForChunked: grain must be >= 1");
  if (count == 0) return;
  const std::size_t threads = pool == nullptr ? 1 : pool->ThreadCount();
  // ~2 chunks per worker, never below the grain.
  const std::size_t chunk =
      std::max(grain, (count + 2 * threads - 1) / (2 * threads));
  if (pool == nullptr || chunk >= count || ThreadPool::InWorker()) {
    body(std::size_t{0}, count);
    return;
  }

  detail::ForkJoinState state;
  state.pending = (count - 1) / chunk;  // chunks beyond the caller's first
  for (std::size_t begin = chunk; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    pool->Submit([&state, &body, begin, end] {
      try {
        body(begin, end);
      } catch (...) {
        state.Record(std::current_exception());
      }
      state.Finish();
    });
  }
  try {
    body(std::size_t{0}, chunk);
  } catch (...) {
    state.Record(std::current_exception());
  }
  std::unique_lock lock(state.mutex);
  state.cv.wait(lock, [&state] { return state.pending == 0; });
  if (state.error) std::rethrow_exception(std::exchange(state.error, nullptr));
}

/// The process-wide pool for intra-solver parallelism (the level-synchronous
/// Multiple-NoD DP). Lazily created on first call with the width set by
/// SetSolverThreads. Returns nullptr when intra-solver parallelism is off
/// (width 1) — callers pass the result straight to ParallelForChunked, which
/// then runs inline. Solvers never own threads: they all share this pool, and
/// per-call completion tracking keeps concurrent solves independent.
[[nodiscard]] ThreadPool* SolverPool();

/// Sets the solver-pool width: 0 = hardware concurrency, 1 = serial (no
/// pool). Destroys any existing pool (joining its workers) so the next
/// SolverPool() call rebuilds it at the new width; call between solves.
void SetSolverThreads(std::size_t threads);

/// The configured solver-parallelism width (0 already resolved to hardware
/// concurrency; >= 1).
[[nodiscard]] std::size_t SolverThreads();

}  // namespace rpt
