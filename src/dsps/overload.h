#ifndef INSIGHT_DSPS_OVERLOAD_H_
#define INSIGHT_DSPS_OVERLOAD_H_

#include <cstdint>

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
/// seed (the PR 4 convention) and no shed hook runs. Backpressure itself
/// needs no knob: an emitter blocks on a full queue.
struct Options {
  /// Priority-aware load shedding: above `shed_low_watermark` queue
  /// occupancy (TaskQueue::Occupancy) the runtime drops kLow tuples bound
  /// for that queue; above `shed_high_watermark` it also drops kNormal.
  /// kHigh is never shed. The watermarks are checked once, when a tuple is staged; a staged block
  /// is at most `emit_batch` tuples old when it is flushed.
  /// Shed tuples are counted (`tuples_shed{priority}`) and — when tracked by
  /// the acker — fail fast: the tree is discarded and Spout::Fail fires
  /// immediately instead of waiting out the ack timeout.
  bool enable_load_shedding = false;
  double shed_low_watermark = 0.75;
  double shed_high_watermark = 0.90;
};

}  // namespace overload
}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_OVERLOAD_H_
