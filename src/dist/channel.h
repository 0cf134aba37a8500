#ifndef INSIGHT_DIST_CHANNEL_H_
#define INSIGHT_DIST_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dsps/topology.h"
#include "net/wire.h"

namespace insight {
namespace dist {

/// Remote edges must survive a worker being killed mid-stream. The design
/// invariant (see DESIGN.md "Distributed runtime"): a tuple's effects may
/// only become durable *atomically with* the forwarding of its emissions.
/// Hence remote forwarding is captured at the emitting task itself —
/// ForwardingBolt snapshots the user bolt's state and its egress retransmit
/// buffer in one checkpoint — rather than through a downstream egress task
/// whose input queue would die with the process. Spout components get an
/// injected EgressBolt instead (spouts are not Snapshottable); their
/// replay buffer covers the in-process hop to it.

uint64_t Splitmix64(uint64_t x);

/// Chains a replay-stable wire id from the input's dedup id and the
/// emission ordinal within the current Execute call. Mirrors the runtime's
/// dedup chain so re-executions reproduce identical wire ids, which is what
/// lets the receiving worker's dedup ledgers suppress duplicates that
/// crossed the network.
uint64_t ChainWireId(uint64_t input_dedup_id, uint64_t emit_ordinal);

struct EgressOptions {
  /// Tuples staged per destination before a frame is cut (a batch = one
  /// frame; matches the local Outbox emit_batch spirit).
  size_t batch_tuples = 64;
  /// Staged tuples older than this are flushed by the network tick.
  MicrosT flush_interval_micros = 2'000;
};

/// Per-(source component, task) retransmit buffer feeding every remote
/// destination worker. Owned by the Worker (shared_ptr) so the network
/// thread can reach it independently of bolt instance lifecycle.
///
/// Thread model: Add/Snapshot/Restore run on the executor thread owning the
/// task; HandleAck/TakeSendable/MarkDisconnected run on the network thread.
/// One mutex guards everything — frames are encoded at flush so the lock
/// hold is bounded.
class EgressBuffer {
 public:
  EgressBuffer(std::string stream, uint32_t sender_task,
               std::vector<uint32_t> dest_workers, EgressOptions options);

  /// Stages one tuple toward every destination, cutting frames at
  /// batch_tuples. Blocks while any destination's unacked window
  /// (kWindowFrames) is full, until acks drain it or Shutdown: backpressure
  /// propagated to the executor thread.
  void Add(const net::ValuePayload& payload, uint64_t wire_id,
           MicrosT spout_time,
           dsps::TuplePriority priority = dsps::TuplePriority::kNormal);

  /// Serializes {next_seq, unacked frames} per destination (staging is
  /// flushed first so the snapshot covers every accepted tuple).
  Status Snapshot(std::string* out) const;
  /// Replaces the buffer contents; every restored frame is marked unsent so
  /// the network tick retransmits it.
  Status Restore(const std::string& bytes);

  /// Receiver resolved these frame sequences; drops them and releases Add
  /// waiters.
  /// Runs on the network thread (an EventLoop frame handler): must never
  /// block, or one slow destination stalls every connection on the loop.
  void HandleAck(uint32_t dest_worker,
                 const std::vector<uint64_t>& seqs) TMS_NON_BLOCKING;

  /// Encoded kTupleBatch payloads for `dest_worker` not yet sent on the
  /// current connection, in sequence order (marks them sent). Also cuts a
  /// frame from staging once it exceeds flush_interval_micros (pass the
  /// current monotonic time).
  std::vector<std::string> TakeSendable(uint32_t dest_worker,
                                        MicrosT now_micros) TMS_NON_BLOCKING;

  /// Connection to `dest_worker` dropped: marks every unacked frame for
  /// resend. Returns the number of in-flight tuples requeued.
  uint64_t MarkDisconnected(uint32_t dest_worker);

  uint64_t UnackedFrames() const;
  void Shutdown();

  const std::string& stream() const { return stream_; }
  uint32_t sender_task() const { return sender_task_; }
  const std::vector<uint32_t>& dest_workers() const { return dest_workers_; }

 private:
  struct FrameRec {
    uint32_t tuple_count = 0;
    std::string bytes;  // encoded kTupleBatch payload
    bool sent = false;  // on the current connection
  };
  struct Staged {
    net::ValuePayload payload;
    uint64_t wire_id = 0;
    MicrosT spout_time = 0;
    dsps::TuplePriority priority = dsps::TuplePriority::kNormal;
  };
  struct DestState {
    uint32_t worker = 0;
    uint64_t next_seq = 1;
    std::map<uint64_t, FrameRec> unacked;
    std::vector<Staged> staging;
    MicrosT staging_since = 0;
  };

  void FlushStagingLocked(DestState* dest) REQUIRES(mutex_);

  const std::string stream_;
  const uint32_t sender_task_;
  const std::vector<uint32_t> dest_workers_;
  const EgressOptions options_;

  mutable Mutex mutex_{TMS_LOCK_RANK(30)};
  mutable CondVar window_cv_;
  /// Mutable so the const Snapshot can flush staging first (logical state
  /// is unchanged; same pattern as lazily-materialized caches).
  mutable std::vector<DestState> dests_ GUARDED_BY(mutex_);
  bool shutdown_ GUARDED_BY(mutex_) = false;
};

/// All egress buffers of one source component (one per task).
struct EgressGroup {
  std::string component;
  std::vector<std::shared_ptr<EgressBuffer>> buffers;  // indexed by task
};

/// Receive side of one remote source stream: frame-level bookkeeping
/// (per-sender-task sequence tracking with incarnation-aware duplicate
/// suppression), the decoded-tuple queue the ingress spout drains, and the
/// in-flight map tying local tuple trees back to the frames that carried
/// them so hop-acks fire when a frame's tuples are all resolved. It sheds
/// nothing: the ingress spout re-stamps each tuple's priority, and the
/// worker's LocalRuntime sheds it like a local one.
class IngressQueue {
 public:
  explicit IngressQueue(std::string stream);

  enum class Disposition { kAccepted, kDuplicate, kStale };

  /// Network thread: offers one decoded batch from the stream's sender at
  /// `incarnation`. kDuplicate re-acks through the ack sink; kStale frames
  /// (older incarnation) are dropped without acking.
  Disposition OfferFrame(uint64_t incarnation, const net::TupleBatch& batch);

  struct PendingTuple {
    uint64_t wire_id = 0;
    MicrosT spout_time = 0;
    net::ValuePayload payload;
    uint32_t sender_task = 0;
    uint64_t incarnation = 0;
    uint64_t seq = 0;
    dsps::TuplePriority priority = dsps::TuplePriority::kNormal;
  };

  /// Spout thread: moves up to `max` tuples out of the queue. The caller
  /// must follow up with TrackInflight (acking) or ResolveNow per tuple.
  size_t Drain(size_t max, std::vector<PendingTuple>* out);

  /// Registers the tuple as in flight under its wire id. Returns true when
  /// the caller should emit it; false when the id is already in flight (a
  /// retransmitted duplicate — its frame ref attaches to the existing
  /// entry and resolves with it, never emitting twice).
  bool TrackInflight(const PendingTuple& tuple);
  /// The local tree rooted at `wire_id` resolved (Ack or Fail): decrements
  /// every attached frame's outstanding count, emitting hop-acks for
  /// completed frames through the ack sink.
  void ResolveInflight(uint64_t wire_id);
  /// Non-acking path: resolves the tuple's frame ref immediately.
  void ResolveNow(const PendingTuple& tuple);

  /// Drain-shutdown: the spout reports exhaustion once done and empty.
  void MarkDone();
  bool Exhausted() const;

  size_t QueuedTuples() const;
  size_t InflightTuples() const;
  /// True while the queue holds kPauseThreshold tuples or more: the worker
  /// then pauses reading the stream's senders.
  bool WantsPause() const;

  /// Sink for hop-acks: (sender_task, seqs). Called on whichever thread
  /// resolved the frame (spout executor or network); the sink must be
  /// thread-safe (EventLoop::Send is).
  void SetAckSink(std::function<void(uint32_t, std::vector<uint64_t>)> sink);

  const std::string& stream() const { return stream_; }

 private:
  struct FrameKey {
    uint32_t sender_task = 0;
    uint64_t incarnation = 0;
    uint64_t seq = 0;
  };
  struct FrameProgress {
    uint32_t outstanding = 0;
  };
  struct TaskChannel {
    std::map<uint64_t, FrameProgress> in_progress;  // seq -> outstanding
    std::deque<uint64_t> completed_fifo;
    std::unordered_set<uint64_t> completed;
  };

  /// Resolves one frame ref; appends any completed (task, seq) to `acks`.
  void ResolveRefLocked(const FrameKey& key,
                        std::vector<std::pair<uint32_t, uint64_t>>* acks)
      REQUIRES(mutex_);
  void EmitAcks(std::vector<std::pair<uint32_t, uint64_t>> acks);

  const std::string stream_;

  mutable Mutex mutex_{TMS_LOCK_RANK(35)};
  uint64_t incarnation_ GUARDED_BY(mutex_) = 0;
  std::map<uint32_t, TaskChannel> channels_ GUARDED_BY(mutex_);
  std::deque<PendingTuple> queue_ GUARDED_BY(mutex_);
  std::unordered_map<uint64_t, std::vector<FrameKey>> inflight_
      GUARDED_BY(mutex_);
  bool done_ GUARDED_BY(mutex_) = false;
  std::function<void(uint32_t, std::vector<uint64_t>)> ack_sink_
      GUARDED_BY(mutex_);
};

/// Spout injected for each remote source: re-roots received tuples under
/// their wire ids (EmitRooted), so the local acker tracks them and the
/// frame hop-ack fires only once the local tree resolves — with deferred
/// acking that means covered by durable checkpoints.
class IngressSpout : public dsps::Spout {
 public:
  IngressSpout(std::shared_ptr<IngressQueue> queue, bool acking)
      : queue_(std::move(queue)), acking_(acking) {}

  bool NextTuple(dsps::Collector* collector) override;
  void Ack(uint64_t message_id) override;
  void Fail(uint64_t message_id) override;

 private:
  std::shared_ptr<IngressQueue> queue_;
  const bool acking_;
  std::vector<IngressQueue::PendingTuple> batch_;
};

/// Wraps a user bolt whose component has remote subscribers: every emission
/// is captured into the task's EgressBuffer (with a chained wire id) in the
/// same Execute call that mutates the user bolt's state, and SnapshotState
/// serializes both atomically. Locally-subscribed copies still flow through
/// the real collector unchanged.
class ForwardingBolt : public dsps::Bolt, public dsps::Snapshottable {
 public:
  ForwardingBolt(std::unique_ptr<dsps::Bolt> inner,
                 std::shared_ptr<EgressGroup> group);

  void Prepare(const dsps::TaskContext& context) override;
  void Execute(const dsps::Tuple& input,
               dsps::Collector* collector) override;
  void Cleanup() override;

  Status SnapshotState(std::string* out) const override;
  Status RestoreState(const std::string& bytes) override;

 private:
  class Capture;

  std::unique_ptr<dsps::Bolt> inner_;
  dsps::Snapshottable* inner_snapshot_ = nullptr;
  std::shared_ptr<EgressGroup> group_;
  std::shared_ptr<EgressBuffer> buffer_;
  uint64_t fresh_seed_ = 0;
  uint64_t fresh_counter_ = 0;
};

/// Injected egress for spout components with remote subscribers: absorbs
/// the spout's tuples (GlobalGrouping) into the retransmit buffer. Under
/// checkpointing its deferred ack means the spout's tree completes only
/// when the buffer snapshot is durable — from then on retransmission, not
/// spout replay, owns delivery.
class EgressBolt : public dsps::Bolt, public dsps::Snapshottable {
 public:
  explicit EgressBolt(std::shared_ptr<EgressGroup> group);

  void Prepare(const dsps::TaskContext& context) override;
  void Execute(const dsps::Tuple& input,
               dsps::Collector* collector) override;

  Status SnapshotState(std::string* out) const override;
  Status RestoreState(const std::string& bytes) override;

 private:
  std::shared_ptr<EgressGroup> group_;
  std::shared_ptr<EgressBuffer> buffer_;
  uint64_t fresh_seed_ = 0;
  uint64_t fresh_counter_ = 0;
};

/// Wraps a user spout to flag exhaustion: the worker's heartbeat reports
/// user-spouts-done once every wrapped task has returned false, which is
/// one leg of the supervisor's cluster-quiescence test.
class WatchedSpout : public dsps::Spout {
 public:
  WatchedSpout(std::unique_ptr<dsps::Spout> inner,
               std::shared_ptr<std::atomic<int>> live_counter)
      : inner_(std::move(inner)), live_(std::move(live_counter)) {}

  void Open(const dsps::TaskContext& context) override {
    inner_->Open(context);
  }
  bool NextTuple(dsps::Collector* collector) override {
    bool more = inner_->NextTuple(collector);
    if (!more && !done_) {
      done_ = true;
      live_->fetch_sub(1);
    }
    return more;
  }
  void Ack(uint64_t message_id) override { inner_->Ack(message_id); }
  void Fail(uint64_t message_id) override { inner_->Fail(message_id); }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<dsps::Spout> inner_;
  std::shared_ptr<std::atomic<int>> live_;
  bool done_ = false;
};

}  // namespace dist
}  // namespace insight

#endif  // INSIGHT_DIST_CHANNEL_H_
