#ifndef INSIGHT_DSPS_TASK_QUEUE_H_
#define INSIGHT_DSPS_TASK_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/static_analysis.h"
#include "common/thread_annotations.h"
#include "dsps/ring_queue.h"
#include "dsps/tuple.h"

namespace insight {
namespace dsps {

/// The bounded input queue of one bolt task, Storm's executor receive
/// queue. Producers append whole flushed blocks; the task's executor drains
/// batches from the front. The queue owns all of its state, so each of its
/// invariants is kept in one place: the ring, its mutex and two conditions,
/// the high-water mark and, when the drain is priority-aware, the count of
/// queued kHigh tuples and the occupancy the shed decision reads. The
/// runtime keeps what the queue does not need to know: in-flight counting,
/// trace timestamps, acking and dedup.
///
/// Lock hierarchy: `mutex_` is a leaf, nothing else is acquired while it is
/// held (see DESIGN.md "Concurrency discipline").
class TaskQueue {
 public:
  /// A producer waits while `capacity` tuples are queued. `priority_drain`
  /// (load shedding on) makes Drain serve kHigh tuples first and publishes
  /// the occupancy for lock-free reads. `*stopping` is the owning runtime's
  /// shutdown flag: once it is set, appends drop their block and waits end.
  /// `clock` times the backpressure waits.
  TaskQueue(size_t capacity, bool priority_drain,
            const std::atomic<bool>* stopping, const Clock* clock)
      : capacity_(capacity),
        priority_drain_(priority_drain),
        stopping_(stopping),
        clock_(clock) {}

  /// Appends `block` whole and clears it, keeping its capacity. While the
  /// queue is full the producer waits, and the wait is added to
  /// `*blocked_micros`. Once the runtime is stopping the block is cleared
  /// without being queued and Append returns false: its tuples are dropped.
  bool Append(std::vector<Tuple>* block, MicrosT* blocked_micros)
      TMS_NO_ALLOC {
    const size_t n = block->size();
    MutexLock lock(mutex_);
    if (!stopping_->load() && queue_.size() >= capacity_) {
      // Backpressure: the clock is read only when the emitter must wait.
      const MicrosT blocked_since = clock_->NowMicros();
      while (!stopping_->load() && queue_.size() >= capacity_) {
        not_full_.Wait(mutex_);
      }
      *blocked_micros += clock_->NowMicros() - blocked_since;
    }
    if (stopping_->load()) {
      block->clear();
      return false;
    }
    if (priority_drain_) {
      for (const Tuple& t : *block) {
        if (t.priority() == TuplePriority::kHigh) ++high_count_;
      }
    }
    // TMS_ANALYZE_EXEMPT(bounded chunk growth: the queue takes a new 64-slot
    // chunk only past its peak occupancy and reuses spare chunks, and
    // queue_capacity plus one block per producer bounds occupancy)
    for (Tuple& t : *block) queue_.push_back(std::move(t));
    block->clear();  // keeps capacity for the next batch
    const size_t size = queue_.size();
    // Backpressure overshoot bound: this producer observed size < capacity
    // under the lock before appending its whole block, so occupancy exceeds
    // capacity by strictly fewer than the block's n tuples — at most one
    // block per producer, never more.
    TMS_CHECK_LT(size, capacity_ + n)
        << "queue overshot capacity by a full flush block";
    if (size > peak_size_.load(std::memory_order_relaxed)) {
      peak_size_.store(size, std::memory_order_relaxed);
    }
    PublishSize();
    not_empty_.NotifyOne();
    return true;
  }

  /// Moves up to `max_batch` tuples to the back of `batch` and wakes the
  /// blocked producers. A priority drain holding more than one batch lets
  /// the critical tier jump the line: up to `max_batch` kHigh tuples are
  /// extracted first, their relative order preserved, then the rest fills
  /// FIFO. This keeps kHigh latency proportional to the kHigh backlog
  /// instead of the shed-watermark standing queue.
  void Drain(size_t max_batch, std::vector<Tuple>* batch) {
    MutexLock lock(mutex_);
    size_t n = std::min(max_batch, queue_.size());
    if (high_count_ > 0 && n < queue_.size()) {
      const size_t want_high = std::min(n, high_count_);
      size_t taken_high = 0;
      size_t write = 0;
      for (size_t read = 0; read < queue_.size(); ++read) {
        if (taken_high < want_high &&
            queue_[read].priority() == TuplePriority::kHigh) {
          batch->push_back(std::move(queue_[read]));
          ++taken_high;
          continue;
        }
        if (write != read) queue_[write] = std::move(queue_[read]);
        ++write;
      }
      queue_.truncate(write);
      high_count_ -= taken_high;
      n -= taken_high;
    }
    for (size_t k = 0; k < n; ++k) {
      if (high_count_ > 0 &&
          queue_.front().priority() == TuplePriority::kHigh) {
        --high_count_;
      }
      batch->push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (batch->empty()) return;
    PublishSize();
    not_full_.NotifyAll();
  }

  /// Puts `batch[from..]` back at the front, in order: the un-executed rest
  /// of a batch whose executor crashed. Its kHigh tuples count again.
  void Requeue(std::vector<Tuple>* batch, size_t from) {
    if (from >= batch->size()) return;
    MutexLock lock(mutex_);
    for (size_t k = batch->size(); k-- > from;) {
      if (priority_drain_ &&
          (*batch)[k].priority() == TuplePriority::kHigh) {
        ++high_count_;
      }
      queue_.push_front(std::move((*batch)[k]));
    }
    PublishSize();
    not_empty_.NotifyOne();
  }

  /// Empties the queue and returns how many tuples it abandoned.
  size_t Clear() {
    MutexLock lock(mutex_);
    const size_t abandoned = queue_.size();
    queue_.clear();
    high_count_ = 0;
    PublishSize();
    return abandoned;
  }

  /// Wakes the parked consumer and every producer blocked on a full queue.
  /// The notify happens under the mutex: a waiter that checked its
  /// predicate just before the caller changed it is still between the
  /// check and the wait, and a notify without the lock would be lost.
  void Wake() {
    MutexLock lock(mutex_);
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  /// Parks the consumer for at most `timeout` if the queue is empty and the
  /// runtime is not stopping. The caller re-polls on return, so a spurious
  /// or early wake costs one extra pass.
  void Park(std::chrono::milliseconds timeout) {
    MutexLock lock(mutex_);
    if (!stopping_->load() && queue_.empty()) {
      not_empty_.WaitFor(mutex_, timeout);
    }
  }

  /// Queued tuples as a fraction of capacity; above 1 by less than one
  /// block per producer at most. A priority-drain queue answers with one
  /// relaxed load, so the shed decision reads it on the emit path without
  /// the lock; otherwise the mutex is taken briefly.
  double Occupancy() const TMS_NO_ALLOC TMS_NON_BLOCKING {
    size_t size = 0;
    if (priority_drain_) {
      size = published_size_.load(std::memory_order_relaxed);
    } else {
      MutexLock lock(mutex_);
      size = queue_.size();
    }
    if (capacity_ == 0) return 0.0;
    return static_cast<double>(size) / static_cast<double>(capacity_);
  }

  /// Highest number of tuples ever queued at once.
  size_t peak_size() const {
    return peak_size_.load(std::memory_order_relaxed);
  }

 private:
  /// Publishes the size for Occupancy; a no-op unless the drain is
  /// priority-aware, so shedding-off runs pay no extra store.
  void PublishSize() REQUIRES(mutex_) {
    if (priority_drain_) {
      published_size_.store(queue_.size(), std::memory_order_relaxed);
    }
  }

  const size_t capacity_;
  const bool priority_drain_;
  const std::atomic<bool>* const stopping_;
  const Clock* const clock_;

  mutable Mutex mutex_{TMS_LOCK_RANK(90)};
  CondVar not_empty_;
  CondVar not_full_;
  RingQueue<Tuple> queue_ GUARDED_BY(mutex_);
  /// kHigh tuples currently queued; always 0 unless the drain is
  /// priority-aware. Lets Drain skip the priority scan when no critical
  /// tuple waits.
  size_t high_count_ GUARDED_BY(mutex_) = 0;
  /// `queue_.size()` as of the last change, written under `mutex_` and read
  /// without it by Occupancy. Kept only for a priority drain.
  std::atomic<size_t> published_size_{0};
  /// High-water mark of `queue_.size()`. Written under `mutex_` (appends
  /// serialize, drains never grow the queue); atomic so it is read without
  /// the lock.
  std::atomic<size_t> peak_size_{0};
};

}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_TASK_QUEUE_H_
