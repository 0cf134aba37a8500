#ifndef INSIGHT_DSPS_OVERLOAD_H_
#define INSIGHT_DSPS_OVERLOAD_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/static_analysis.h"

namespace insight {
namespace dsps {

/// Shedding tier of a tuple. Spout declarations tag their emissions
/// (incident tuples outlive routine position reports); bolts inherit the
/// priority of the input they are executing. Ordered: higher value = shed
/// later. kHigh is never shed.
enum class TuplePriority : uint8_t {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

const char* TuplePriorityName(TuplePriority priority);

namespace overload {

/// Overload-protection knobs (LocalRuntime::Options::overload). Everything
/// off by default: with all three features disabled the runtime behaves
/// byte-for-byte like the seed (the PR 4 convention), and none of the
/// per-tuple hooks below are even constructed.
struct Options {
  /// Credit-based flow control: emitters acquire per-queue admission credits
  /// (replenished by the consumer's drain) instead of blocking on a full
  /// queue. A block that gets no credits stays staged in the outbox and is
  /// retried at the next flush, so a slow bolt throttles only its upstreams
  /// — other targets of the same collector keep flowing. Occupancy can never
  /// overshoot `queue_capacity`: admission is exact.
  bool enable_credit_flow = false;
  /// Credit mode: once this many tuples are parked in one outbox awaiting
  /// credits, the producer stalls (bounded 1 ms parks, accounted in
  /// `credits_stalled_ns`) until a flush makes progress.
  size_t max_deferred_tuples = 4096;

  /// Priority-aware load shedding: above `shed_low_watermark` queue
  /// occupancy the runtime drops kLow tuples bound for that queue; above
  /// `shed_high_watermark` it also drops kNormal. kHigh is never shed.
  /// Watermarks are enforced twice — at staging (cheap, skips the outbox)
  /// and again at admission, because a block deferred for credits can carry
  /// decisions made when the queue was briefly below the watermark.
  /// Shed tuples are counted (`tuples_shed{priority}`) and — when tracked by
  /// the acker — fail fast: the tree is discarded and Spout::Fail fires
  /// immediately instead of waiting out the ack timeout.
  bool enable_load_shedding = false;
  double shed_low_watermark = 0.75;
  double shed_high_watermark = 0.90;

  /// Adaptive batch sizing: grow a collector's outbox flush threshold
  /// (x2 per step up to `adaptive_batch_max`) while its targets run hot
  /// (> 1/2 occupancy), shrink it back when they drain (< 1/4), trading
  /// latency for throughput exactly while the pressure lasts. Collectors of
  /// kHigh-declared components are exempt: the latency tier keeps the base
  /// threshold.
  bool enable_adaptive_batch = false;
  size_t adaptive_batch_max = 1024;

  bool any_enabled() const {
    return enable_credit_flow || enable_load_shedding || enable_adaptive_batch;
  }
};

/// Per-queue admission state shared by producers (credit acquisition, shed
/// decisions) and the consumer (credit release). One counter serves every
/// feature: credits = capacity - admitted, occupancy = admitted / capacity.
///
/// Lock-free: producers TryAcquire with a fetch_add and roll back on
/// overshoot; the consumer releases from its drain path. With credit flow
/// disabled the runtime still ForceAcquires after its blocking append so
/// shedding and adaptive batching see live occupancy.
class QueueGate {
 public:
  explicit QueueGate(size_t capacity)
      : capacity_(static_cast<int64_t>(capacity)) {}

  /// Admits `n` tuples if that keeps the total within capacity.
  bool TryAcquire(size_t n) TMS_NO_ALLOC TMS_NON_BLOCKING {
    int64_t want = static_cast<int64_t>(n);
    int64_t prev = admitted_.fetch_add(want, std::memory_order_acquire);
    if (prev + want > capacity_) {
      admitted_.fetch_sub(want, std::memory_order_release);
      return false;
    }
    return true;
  }
  /// Unconditional admission (blocking-backpressure mode: the producer
  /// already waited for space under the queue mutex).
  void ForceAcquire(size_t n) TMS_NO_ALLOC TMS_NON_BLOCKING {
    admitted_.fetch_add(static_cast<int64_t>(n), std::memory_order_acq_rel);
  }
  /// Consumer drained `n` tuples (or shutdown dropped them).
  void Release(size_t n) TMS_NO_ALLOC TMS_NON_BLOCKING {
    admitted_.fetch_sub(static_cast<int64_t>(n), std::memory_order_release);
  }

  int64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  int64_t capacity() const { return capacity_; }
  /// Fraction of capacity currently admitted, in [0, 1+epsilon).
  double Occupancy() const TMS_NO_ALLOC TMS_NON_BLOCKING {
    int64_t a = admitted_.load(std::memory_order_relaxed);
    if (a <= 0) return 0.0;
    return static_cast<double>(a) / static_cast<double>(capacity_);
  }

 private:
  const int64_t capacity_;
  std::atomic<int64_t> admitted_{0};
};

/// Per-collector outbox flush threshold controller. Thread-confined to the
/// emitting executor. Fed the worst target occupancy seen by each flush.
class AdaptiveBatch {
 public:
  AdaptiveBatch(size_t base, size_t max)
      : base_(base), max_(max < base ? base : max), threshold_(base) {}

  size_t threshold() const { return threshold_; }

  /// One flush completed with `worst_occupancy` across its targets.
  void Update(double worst_occupancy) TMS_NO_ALLOC TMS_NON_BLOCKING {
    if (worst_occupancy > 0.5) {
      if (threshold_ < max_) threshold_ = std::min(max_, threshold_ * 2);
    } else if (worst_occupancy < 0.25) {
      if (threshold_ > base_) threshold_ = std::max(base_, threshold_ / 2);
    }
  }

 private:
  size_t base_;
  size_t max_;
  size_t threshold_;
};

}  // namespace overload
}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_OVERLOAD_H_
