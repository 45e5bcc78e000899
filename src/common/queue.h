// The bounded queue the threaded engine's worker queues and migration
// mailbox use: mutex + condition_variable, multi-producer
// multi-consumer, with close() semantics for clean shutdown. The engine
// moves batches, not single tuples, through it, so the lock is amortized
// and uncontended in practice.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

#include "common/assert.h"

namespace skewless {

template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {
    SKW_EXPECTS(capacity > 0);
  }

  /// Blocks until space is available or the queue is closed.
  /// Returns false if the queue was closed (item is dropped).
  bool push(T item) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Enqueues regardless of the capacity bound; returns false only when
  /// the queue is closed. For CONTROL-PLANE messages (the threaded
  /// engine's interval seals): the capacity bound exists to backpressure
  /// the data path, and a boundary message that blocked behind a full
  /// data queue would stall exactly the ingestion the asynchronous
  /// boundary merge exists to keep flowing. At most O(1) such messages
  /// are in flight per queue per interval, so the bound is exceeded by a
  /// constant.
  bool force_push(T item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain then return
  /// nullopt.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace skewless
