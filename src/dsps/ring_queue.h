#ifndef INSIGHT_DSPS_RING_QUEUE_H_
#define INSIGHT_DSPS_RING_QUEUE_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/static_analysis.h"

namespace insight {
namespace dsps {

/// FIFO over fixed-size chunks of default-constructed slots that it keeps
/// and reuses: the input queue of a bolt task. A chunk the front leaves
/// goes to a spare list, and the back takes its next chunk from there, so
/// a push allocates only when more slots are in use than ever before. A
/// queue whose occupancy is bounded (LocalRuntime's by queue_capacity plus
/// one flush block per producer) therefore stops allocating once it has
/// reached that bound, unlike a std::deque, whose producer allocates a
/// chunk every few pushes while its consumer frees them on another thread.
///
/// Chunks rather than one array that grows: a full queue holds a
/// power-of-two queue_capacity plus part of a block, so a doubling array
/// would keep twice the slots it needs, and every array it outgrew would
/// stay behind in the allocator. The chunks number at most one more than
/// the peak occupancy fills, and are freed only with the queue.
///
/// Popped and truncated slots are reset to T{}, so the queue holds no
/// resource of an element that left it. Not thread-safe: the owner locks.
template <typename T>
class RingQueue {
 public:
  /// Slots per chunk; a power of two, so positions split with shifts.
  static constexpr size_t kChunk = 64;

  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated: those in use plus free and spare ones.
  size_t capacity() const { return storage_.size() * kChunk; }

  /// The i-th element from the front, i < size().
  T& operator[](size_t i) TMS_NO_ALLOC {
    TMS_DCHECK_LT(i, size_) << "ring index past its size";
    return Slot(head_ + i);
  }
  T& front() TMS_NO_ALLOC { return (*this)[0]; }

  void push_back(T value) {
    if (head_ + size_ == chunks_ * kChunk) AddChunk(/*front=*/false);
    Slot(head_ + size_) = std::move(value);
    ++size_;
  }

  /// Puts `value` ahead of every queued element (crash requeue).
  void push_front(T value) {
    if (head_ == 0) {
      AddChunk(/*front=*/true);
      head_ = kChunk;
    }
    --head_;
    Slot(head_) = std::move(value);
    ++size_;
  }

  void pop_front() TMS_NO_ALLOC {
    TMS_DCHECK(size_ > 0) << "pop_front on an empty ring";
    Slot(head_) = T{};
    ++head_;
    --size_;
    if (head_ == kChunk) {
      // TMS_ANALYZE_EXEMPT(spare list: its capacity grows to the number of
      // chunks once, then chunks only move between it and the ring)
      spare_.push_back(ring_[first_]);
      first_ = (first_ + 1) & (ring_.size() - 1);
      --chunks_;
      head_ = 0;
    }
  }

  /// Drops the elements from position `n` on; n <= size(). Chunks left
  /// empty at the back go to the spare list.
  void truncate(size_t n) TMS_NO_ALLOC {
    TMS_DCHECK(n <= size_) << "truncate cannot grow a ring";
    while (size_ > n) {
      --size_;
      Slot(head_ + size_) = T{};
    }
    const size_t needed = (head_ + size_ + kChunk - 1) / kChunk;
    while (chunks_ > needed) {
      --chunks_;
      // TMS_ANALYZE_EXEMPT(spare list: its capacity grows to the number of
      // chunks once, then chunks only move between it and the ring)
      spare_.push_back(ring_[(first_ + chunks_) & (ring_.size() - 1)]);
    }
  }

  /// Drops every element.
  void clear() TMS_NO_ALLOC { truncate(0); }

 private:
  /// The slot `position` places after the first slot of the front chunk.
  T& Slot(size_t position) TMS_NO_ALLOC {
    T* chunk = ring_[(first_ + position / kChunk) & (ring_.size() - 1)];
    return chunk[position % kChunk];
  }

  /// Puts a spare or new chunk before the front chunk or after the back
  /// one.
  void AddChunk(bool front) {
    if (chunks_ == ring_.size()) GrowRing();
    T* chunk;
    if (!spare_.empty()) {
      chunk = spare_.back();
      spare_.pop_back();
    } else {
      storage_.emplace_back(new T[kChunk]);
      chunk = storage_.back().get();
    }
    const size_t mask = ring_.size() - 1;
    if (front) {
      first_ = (first_ + mask) & mask;
      ring_[first_] = chunk;
    } else {
      ring_[(first_ + chunks_) & mask] = chunk;
    }
    ++chunks_;
  }

  /// Doubles the ring of chunk pointers, moving the chunks in use to its
  /// front.
  void GrowRing() {
    std::vector<T*> grown(ring_.empty() ? 4 : 2 * ring_.size());
    for (size_t c = 0; c < chunks_; ++c) {
      grown[c] = ring_[(first_ + c) & (ring_.size() - 1)];
    }
    ring_.swap(grown);
    first_ = 0;
  }

  std::vector<std::unique_ptr<T[]>> storage_;  // owns every chunk
  std::vector<T*> spare_;                      // chunks holding no element
  std::vector<T*> ring_;  // chunks in use from first_; power-of-two size
  size_t first_ = 0;      // ring_ index of the front chunk
  size_t chunks_ = 0;     // chunks in use
  size_t head_ = 0;       // slot of the front element in the front chunk
  size_t size_ = 0;
};

}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_RING_QUEUE_H_
