#ifndef INSIGHT_RELIABILITY_ACKER_H_
#define INSIGHT_RELIABILITY_ACKER_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace insight {
namespace reliability {

/// Identity of one tracked tuple tree. `root_key` is the key tuples carry
/// through the topology (spout task and message id mixed with the replay
/// attempt, so stale acks from a timed-out attempt cannot corrupt its
/// replacement and same-numbered messages of different spouts stay
/// distinct); `message_id` is the spout-assigned id reported back via
/// Ack/Fail.
struct TreeInfo {
  uint64_t root_key = 0;
  uint64_t message_id = 0;
  int spout_component = 0;
  int spout_task = 0;
  int attempt = 0;  // 0 = first emission, n = nth replay
  MicrosT created_micros = 0;
  /// Observability: nonzero iff this attempt's root emission was sampled
  /// for tracing. Each replay attempt gets a fresh trace (the previous one
  /// is abandoned), so the id rides with the attempt, not the message.
  uint64_t trace_id = 0;
};

/// Storm's acker: one 64-bit XOR accumulator per pending tuple tree.
///
/// Every tuple instance enqueued anywhere in the topology gets a random
/// 64-bit edge id. The emitter XORs the new edge ids into the tree's
/// accumulator; the consumer XORs the consumed edge id back in when it
/// finishes executing the tuple (together with the edge ids of whatever it
/// emitted, as a single batch). Since x ^ x = 0, the accumulator reaches
/// zero exactly when every emitted tuple has been processed — regardless of
/// the order updates arrive in — so tracking an arbitrarily large tree
/// costs O(1) memory. A transient false zero requires a random subset of
/// 64-bit ids to XOR to the current value (probability ~2^-64, the same
/// odds Storm accepts).
///
/// Registration hands the tree a "guard" edge that the caller XORs back out
/// only after all root tuples are enqueued; until then the accumulator
/// cannot reach zero, closing the race where the first root tuple's subtree
/// completes before the second root tuple is registered.
///
/// Sharded by root key so concurrent executors rarely contend.
class Acker {
 public:
  explicit Acker(size_t num_shards = 16);

  Acker(const Acker&) = delete;
  Acker& operator=(const Acker&) = delete;

  /// Starts tracking a tree with accumulator = guard_edge (must be != 0).
  void Register(const TreeInfo& info, uint64_t guard_edge);

  /// XORs `delta` into the tree's accumulator. Returns the tree's info if
  /// the accumulator reached zero (the tree completed; entry erased).
  /// Updates for unknown keys — late acks of expired or replayed attempts —
  /// are ignored.
  std::optional<TreeInfo> Xor(uint64_t root_key, uint64_t delta);

  /// Removes and returns every tree registered at or before `cutoff`
  /// (the timeout sweep).
  std::vector<TreeInfo> ExpireOlderThan(MicrosT cutoff);

  /// Stops tracking one tree without completing it (load shedding failing
  /// a tree fast). nullopt if unknown.
  std::optional<TreeInfo> Discard(uint64_t root_key);

  /// Trees currently tracked.
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    uint64_t ack_val = 0;
    TreeInfo info;
  };
  struct Shard {
    mutable Mutex mutex{TMS_LOCK_RANK(60)};
    std::unordered_map<uint64_t, Entry> trees GUARDED_BY(mutex);
  };

  Shard& ShardFor(uint64_t root_key);

  std::vector<Shard> shards_;
  std::atomic<size_t> pending_{0};
};

}  // namespace reliability
}  // namespace insight

#endif  // INSIGHT_RELIABILITY_ACKER_H_
