#ifndef INSIGHT_DIST_OPTIONS_H_
#define INSIGHT_DIST_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "dist/channel.h"
#include "dist/placement.h"
#include "dsps/local_runtime.h"

namespace insight {
namespace dist {

/// Configuration shared by the supervisor and every worker process. Both
/// sides construct it from the same user code (the symmetric-binary model),
/// so it must be identical in every process of a cluster.
struct DistOptions {
  uint32_t num_workers = 2;

  /// Optional partial placement; components left out are placed round-robin.
  /// Note the effectively-once guarantee only covers remote edges (the
  /// egress retransmit buffer is checkpointed with the emitting task);
  /// co-located edges keep thread-level delivery semantics. Round-robin
  /// puts adjacent pipeline stages on different workers for num_workers
  /// >= 2, which is what a fault-tolerant run wants.
  Placement placement;

  /// Per-worker LocalRuntime configuration. `state_store` is overridden by
  /// each worker with its own FileStateStore under `checkpoint_dir`.
  dsps::LocalRuntime::Options runtime;

  /// Shared checkpoint root (one subdirectory per worker id, shared across
  /// incarnations). Required when runtime.enable_checkpointing.
  std::string checkpoint_dir;

  EgressOptions egress;

  /// Worker metrics-report period (0 = only the final report).
  MicrosT metrics_interval_micros = 500'000;

  /// Extra argv passed through to spawned worker processes (after the
  /// --insight-* flags). Lets test binaries re-select the app under test.
  std::vector<std::string> worker_args;
};

}  // namespace dist
}  // namespace insight

#endif  // INSIGHT_DIST_OPTIONS_H_
