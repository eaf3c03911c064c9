// ScratchPool<T> — a thread-safe freelist of reusable scratch objects for
// fork-join kernels: each parallel chunk leases one T (created on first use,
// recycled afterwards), so the pool holds at most max-concurrency objects
// for the lifetime of the solve instead of one allocation per chunk per
// level. A leased object keeps whatever capacity it grew, so a kernel whose
// scratch is a set of vectors refilled per step allocates only while the
// vectors warm up.
//
// Ownership: the pool owns its idle objects; a Lease owns one object for its
// lifetime and returns it on destruction, so the pool must outlive every
// lease.
//
// Thread-safety: Acquire/Release are mutex-guarded and safe from any
// thread; a leased object belongs to one chunk at a time.
//
// Determinism: which object a chunk leases changes addresses only, so
// kernels built on the pool stay byte-identical at any thread count
// (asserted by test_parallel_determinism).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace rpt {

/// Thread-safe freelist of default-constructed scratch objects. Acquire()
/// leases one (creating it only when the freelist is empty); the lease
/// returns it on destruction. Objects are never shrunk, so whatever capacity
/// a scratch object grew during one chunk is still there for the next.
template <typename T>
class ScratchPool {
 public:
  class Lease {
   public:
    Lease(ScratchPool* pool, std::unique_ptr<T> object) noexcept
        : pool_(pool), object_(std::move(object)) {}
    Lease(Lease&&) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (object_) pool_->Release(std::move(object_));
    }

    [[nodiscard]] T& operator*() const noexcept { return *object_; }
    [[nodiscard]] T* operator->() const noexcept { return object_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<T> object_;
  };

  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  [[nodiscard]] Lease Acquire() {
    {
      std::scoped_lock lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<T> object = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(object));
      }
    }
    return Lease(this, std::make_unique<T>());
  }

  /// Number of idle objects currently pooled (for tests).
  [[nodiscard]] std::size_t IdleCount() const {
    std::scoped_lock lock(mutex_);
    return free_.size();
  }

 private:
  friend class Lease;

  void Release(std::unique_ptr<T> object) {
    std::scoped_lock lock(mutex_);
    free_.push_back(std::move(object));
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace rpt
