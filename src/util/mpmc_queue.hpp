#pragma once
/// \file mpmc_queue.hpp
/// Bounded lock-free multi-producer/multi-consumer ring queue.
///
/// The classic count/value-cell scheme (cf. joernblog atomic_queue.c and
/// Vyukov's bounded MPMC queue): a power-of-two ring of cells, each pairing a
/// monotonically advancing sequence count with a value slot. A producer
/// claims a cell by CAS-advancing the shared tail only when the cell's count
/// says it is empty for this lap; a consumer symmetrically claims via the
/// head when the count says the cell holds this lap's value. Count updates
/// are the publication: the producer's release-store of `count = pos + 1`
/// makes the moved-in value visible to the consumer whose acquire-load
/// observes it, so no cell is ever read half-written and no entry is lost or
/// delivered twice. Per-producer FIFO holds because a producer's own pushes
/// claim strictly increasing ring positions.
///
/// try_push/try_pop are lock-free and wait-free-ish (one CAS loop each);
/// full/empty answer immediately — backpressure is the caller's policy. The
/// blocking variants layer a mutex+condvar *only* for sleeping: the fast
/// path never touches the lock when the ring has room/work, matching how the
/// service uses it (intake bursts stay lock-free, idle workers sleep).
///
/// No wakeup is lost. A sleeper registers in its sleeper count, then
/// re-checks the ring under the wait mutex with a non-consuming peek before
/// it waits; the opposite side publishes its cell, then reads that count
/// with an acq_rel read-modify-write and notifies under the same mutex.
/// Both sides' count accesses are RMWs, so one reads the other's: either the
/// publisher reads the registration and its notify finds the sleeper, or
/// the registration reads the publisher's RMW, synchronizes with it, and the
/// peek sees the cell.
///
/// T must be nothrow-move-constructible (values move through the cells).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace emutile {

template <typename T>
class MpmcQueue {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "values move through ring cells; moves must not throw");

 public:
  /// `capacity` is rounded up to a power of two (minimum 2) — the ring
  /// indexing relies on it.
  explicit MpmcQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    EMUTILE_CHECK(cap >= capacity, "queue capacity overflow");
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].count.store(i, std::memory_order_relaxed);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Entries currently in the ring, approximate under concurrency (exact
  /// when quiescent). Never negative.
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return tail > head ? static_cast<std::size_t>(tail - head) : 0;
  }

  /// Non-blocking enqueue; false when the ring is full (the bounded
  /// backpressure signal).
  [[nodiscard]] bool try_push(T value) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t count = cell.count.load(std::memory_order_acquire);
      const std::int64_t diff =
          static_cast<std::int64_t>(count) - static_cast<std::int64_t>(pos);
      if (diff == 0) {
        // Cell is empty for this lap; claim it by advancing the tail.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return false;  // a full lap behind: ring is full
      } else {
        pos = tail_.load(std::memory_order_relaxed);  // lost to a producer
      }
    }
    Cell& cell = cells_[pos & mask_];
    ::new (&cell.storage) T(std::move(value));
    cell.count.store(pos + 1, std::memory_order_release);  // publish
    if (pop_sleepers_.fetch_add(0, std::memory_order_acq_rel) > 0) {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      not_empty_.notify_one();
    }
    return true;
  }

  /// Non-blocking dequeue; empty optional when the ring is empty.
  [[nodiscard]] std::optional<T> try_pop() {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t count = cell.count.load(std::memory_order_acquire);
      const std::int64_t diff = static_cast<std::int64_t>(count) -
                                static_cast<std::int64_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return std::nullopt;  // cell not yet produced: ring is empty
      } else {
        pos = head_.load(std::memory_order_relaxed);  // lost to a consumer
      }
    }
    Cell& cell = cells_[pos & mask_];
    T* value = std::launder(reinterpret_cast<T*>(&cell.storage));
    std::optional<T> out(std::move(*value));
    value->~T();
    // Mark the cell empty for the *next* lap of producers.
    cell.count.store(pos + mask_ + 1, std::memory_order_release);
    if (push_sleepers_.fetch_add(0, std::memory_order_acq_rel) > 0) {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      not_full_.notify_one();
    }
    return out;
  }

  /// Blocking dequeue: returns a value, or an empty optional once `stop` is
  /// true *and* the ring has drained (a stopping queue still hands out every
  /// remaining entry — nothing submitted is ever silently dropped).
  [[nodiscard]] std::optional<T> pop_wait(const std::atomic<bool>& stop) {
    for (;;) {
      if (std::optional<T> v = try_pop()) return v;
      if (!sleep_until(pop_sleepers_, not_empty_, stop,
                       [this] { return has_value(); }))
        return try_pop();  // stopping: hand out a last straggler, if any
    }
  }

  /// Blocking enqueue: retries until the push lands or `stop` turns true
  /// (returns false then, value dropped — only used on teardown paths).
  [[nodiscard]] bool push_wait(T value, const std::atomic<bool>& stop) {
    for (;;) {
      // try_push only moves-from on success, so `value` is still intact.
      if (try_push(std::move(value))) return true;
      if (!sleep_until(push_sleepers_, not_full_, stop,
                       [this] { return has_room(); }))
        return try_push(std::move(value));
    }
  }

  /// Wake every blocked pop_wait/push_wait so they can observe a freshly set
  /// stop flag. Call after flipping the flag.
  void notify_all() {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  ~MpmcQueue() {
    // Destroy whatever is still in flight (teardown after stop).
    while (try_pop()) {
    }
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> count{0};
    alignas(T) unsigned char storage[sizeof(T)];
  };

  /// Non-consuming peeks: the head cell holds this lap's value / the tail
  /// cell is free for this lap. Exact when quiescent, which is all a sleeper
  /// needs — a stale answer only sends it round its loop once more.
  [[nodiscard]] bool has_value() const {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    return cells_[pos & mask_].count.load(std::memory_order_acquire) >=
           pos + 1;
  }
  [[nodiscard]] bool has_room() const {
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    return cells_[pos & mask_].count.load(std::memory_order_acquire) >= pos;
  }

  /// Sleep on `cv` until `ready()` holds or a notify arrives. Returns true
  /// to retry the ring, false when `stop` is set and the ring is not ready.
  /// `ready` is checked under the wait mutex after registering as a sleeper,
  /// so a publish landing just before the wait is seen here or notifies us.
  /// The 50 ms slice only bounds how late a stop flag set without
  /// notify_all() is seen.
  template <typename Ready>
  bool sleep_until(std::atomic<std::int64_t>& sleepers,
                   std::condition_variable& cv, const std::atomic<bool>& stop,
                   Ready ready) {
    sleepers.fetch_add(1, std::memory_order_acq_rel);
    bool retry = true;
    {
      std::unique_lock<std::mutex> lock(wait_mutex_);
      if (!ready()) {
        if (stop.load(std::memory_order_acquire))
          retry = false;
        else
          cv.wait_for(lock, std::chrono::milliseconds(50));
      }
    }
    sleepers.fetch_sub(1, std::memory_order_relaxed);
    return retry;
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  // Head and tail on separate cache lines so producers and consumers do not
  // false-share.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  // Sleep/wake plumbing for the blocking variants only; the lock-free fast
  // path checks the opposite side's sleeper count with one atomic RMW.
  // Consumers and producers wait on separate condvars, so a notify_one can
  // never wake the wrong kind of sleeper.
  std::atomic<std::int64_t> pop_sleepers_{0};
  std::atomic<std::int64_t> push_sleepers_{0};
  std::mutex wait_mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
};

}  // namespace emutile
