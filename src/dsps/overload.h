#ifndef INSIGHT_DSPS_OVERLOAD_H_
#define INSIGHT_DSPS_OVERLOAD_H_

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

/// Overload-protection knobs (LocalRuntime::Options::overload). Off by
/// default: with shedding disabled the runtime behaves byte-for-byte like the
/// seed (the PR 4 convention), and none of the per-tuple hooks below are even
/// constructed. Backpressure itself needs no knob: an emitter blocks on a
/// full queue.
struct Options {
  /// Priority-aware load shedding: above `shed_low_watermark` queue
  /// occupancy the runtime drops kLow tuples bound for that queue; above
  /// `shed_high_watermark` it also drops kNormal. kHigh is never shed.
  /// The watermarks are checked once, when a tuple is staged; a staged block
  /// is at most `emit_batch` tuples old when it is flushed.
  /// Shed tuples are counted (`tuples_shed{priority}`) and — when tracked by
  /// the acker — fail fast: the tree is discarded and Spout::Fail fires
  /// immediately instead of waiting out the ack timeout.
  bool enable_load_shedding = false;
  double shed_low_watermark = 0.75;
  double shed_high_watermark = 0.90;

  bool any_enabled() const { return enable_load_shedding; }
};

/// Occupancy of one task queue, as the shed decisions read it without the
/// queue mutex. Producers add a block after appending it under the queue
/// mutex; the consumer subtracts what it drains.
class QueueGate {
 public:
  explicit QueueGate(size_t capacity)
      : capacity_(static_cast<int64_t>(capacity)) {}

  /// The producer appended `n` tuples to the queue.
  void ForceAcquire(size_t n) TMS_NO_ALLOC TMS_NON_BLOCKING {
    admitted_.fetch_add(static_cast<int64_t>(n), std::memory_order_acq_rel);
  }
  /// The consumer drained `n` tuples.
  void Release(size_t n) TMS_NO_ALLOC TMS_NON_BLOCKING {
    admitted_.fetch_sub(static_cast<int64_t>(n), std::memory_order_release);
  }

  int64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
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

}  // namespace overload
}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_OVERLOAD_H_
