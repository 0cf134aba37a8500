#include "dist/channel.h"

#include <chrono>
#include <thread>

#include "common/bytes.h"

namespace insight {
namespace dist {

using dsps::Value;

namespace {

constexpr uint32_t kEgressSnapshotMagic = 0x31424745;      // "EGB1"
constexpr uint32_t kForwardingSnapshotMagic = 0x31445746;  // "FWD1"
constexpr uint32_t kEgressBoltSnapshotMagic = 0x31524745;  // "EGR1"

/// Distinct from the runtime's in-process dedup chain multiplier so wire
/// ids never collide with local dedup ids.
constexpr uint64_t kWireChainSalt = 0x9fb21c651e98df25ULL;
/// Salt for the spout-egress hop (single emission per input, no ordinal).
constexpr uint64_t kEgressHopSalt = 0xd6e8feb86659fd93ULL;

/// Unacked frames per destination before EgressBuffer::Add blocks.
constexpr size_t kWindowFrames = 128;
/// Queued tuples at which IngressQueue::WantsPause asks the worker to stop
/// reading the stream's senders.
constexpr size_t kPauseThreshold = 4096;
/// Resolved frame sequences remembered per sender task for duplicate
/// suppression (bounded FIFO; older duplicates are caught by the receiving
/// tasks' dedup ledgers).
constexpr size_t kCompletedCapacity = 8192;

uint64_t FreshSeed(int task_index) {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return Splitmix64(static_cast<uint64_t>(now.count()) ^
                    (kWireChainSalt * static_cast<uint64_t>(task_index + 1)));
}

}  // namespace

uint64_t Splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ChainWireId(uint64_t input_dedup_id, uint64_t emit_ordinal) {
  return Splitmix64(input_dedup_id ^ (kWireChainSalt * emit_ordinal));
}

// ---------------------------------------------------------------------------
// EgressBuffer

EgressBuffer::EgressBuffer(std::string stream, uint32_t sender_task,
                           std::vector<uint32_t> dest_workers,
                           EgressOptions options)
    : stream_(std::move(stream)),
      sender_task_(sender_task),
      dest_workers_(std::move(dest_workers)),
      options_(options) {
  MutexLock lock(mutex_);
  dests_.reserve(dest_workers_.size());
  for (uint32_t worker : dest_workers_) {
    DestState dest;
    dest.worker = worker;
    dests_.push_back(std::move(dest));
  }
}

void EgressBuffer::FlushStagingLocked(DestState* dest) {
  if (dest->staging.empty()) return;
  net::TupleBatchBuilder builder(stream_, sender_task_);
  for (const Staged& staged : dest->staging) {
    builder.Add(staged.payload, staged.wire_id, staged.spout_time,
                static_cast<uint8_t>(staged.priority));
  }
  net::TupleBatch batch = builder.Take(dest->next_seq);
  FrameRec rec;
  rec.tuple_count = static_cast<uint32_t>(batch.tuples.size());
  net::EncodeTupleBatch(batch, &rec.bytes);
  dest->unacked.emplace(dest->next_seq, std::move(rec));
  ++dest->next_seq;
  dest->staging.clear();
  dest->staging_since = 0;
}

void EgressBuffer::Add(const net::ValuePayload& payload, uint64_t wire_id,
                       MicrosT spout_time, dsps::TuplePriority priority) {
  MutexLock lock(mutex_);
  for (;;) {
    if (shutdown_) return;
    bool full = false;
    for (const DestState& dest : dests_) {
      if (dest.unacked.size() >= kWindowFrames) {
        full = true;
        break;
      }
    }
    if (!full) break;
    window_cv_.WaitFor(mutex_, std::chrono::milliseconds(100));
  }
  for (DestState& dest : dests_) {
    if (dest.staging.empty()) {
      dest.staging_since =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count();
    }
    dest.staging.push_back(Staged{payload, wire_id, spout_time, priority});
    if (dest.staging.size() >= options_.batch_tuples) {
      FlushStagingLocked(&dest);
    }
  }
}

Status EgressBuffer::Snapshot(std::string* out) const {
  MutexLock lock(mutex_);
  for (DestState& dest : dests_) {
    const_cast<EgressBuffer*>(this)->FlushStagingLocked(&dest);
  }
  out->clear();
  ByteWriter writer(out);
  writer.PutU32(kEgressSnapshotMagic);
  writer.PutU32(static_cast<uint32_t>(dests_.size()));
  for (const DestState& dest : dests_) {
    writer.PutU32(dest.worker);
    writer.PutU64(dest.next_seq);
    writer.PutU32(static_cast<uint32_t>(dest.unacked.size()));
    for (const auto& [seq, rec] : dest.unacked) {
      writer.PutU64(seq);
      writer.PutU32(rec.tuple_count);
      writer.PutString(rec.bytes);
    }
  }
  return Status::OK();
}

Status EgressBuffer::Restore(const std::string& bytes) {
  MutexLock lock(mutex_);
  ByteReader reader(bytes);
  uint32_t magic = 0;
  if (!reader.GetU32(&magic) || magic != kEgressSnapshotMagic) {
    return Status::ParseError("egress snapshot: bad magic");
  }
  uint32_t dest_count = 0;
  if (!reader.GetU32(&dest_count) || dest_count != dests_.size()) {
    return Status::ParseError("egress snapshot: destination set changed");
  }
  std::vector<DestState> restored;
  restored.reserve(dest_count);
  for (uint32_t i = 0; i < dest_count; ++i) {
    DestState dest;
    uint32_t frame_count = 0;
    if (!reader.GetU32(&dest.worker) || !reader.GetU64(&dest.next_seq) ||
        !reader.GetU32(&frame_count)) {
      return Status::ParseError("egress snapshot: truncated destination");
    }
    bool known = false;
    for (uint32_t worker : dest_workers_) known = known || worker == dest.worker;
    if (!known) {
      return Status::ParseError("egress snapshot: unknown destination worker");
    }
    for (uint32_t f = 0; f < frame_count; ++f) {
      uint64_t seq = 0;
      FrameRec rec;
      if (!reader.GetU64(&seq) || !reader.GetU32(&rec.tuple_count) ||
          !reader.GetString(&rec.bytes)) {
        return Status::ParseError("egress snapshot: truncated frame");
      }
      rec.sent = false;  // the new incarnation resends everything
      dest.unacked.emplace(seq, std::move(rec));
    }
    restored.push_back(std::move(dest));
  }
  if (!reader.exhausted()) {
    return Status::ParseError("egress snapshot: trailing bytes");
  }
  dests_ = std::move(restored);
  return Status::OK();
}

void EgressBuffer::HandleAck(uint32_t dest_worker,
                             const std::vector<uint64_t>& seqs) {
  MutexLock lock(mutex_);
  for (DestState& dest : dests_) {
    if (dest.worker != dest_worker) continue;
    for (uint64_t seq : seqs) dest.unacked.erase(seq);
    break;
  }
  window_cv_.NotifyAll();
}

std::vector<std::string> EgressBuffer::TakeSendable(uint32_t dest_worker,
                                                   MicrosT now_micros) {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  for (DestState& dest : dests_) {
    if (dest.worker != dest_worker) continue;
    if (!dest.staging.empty() &&
        now_micros - dest.staging_since >= options_.flush_interval_micros) {
      FlushStagingLocked(&dest);
    }
    for (auto& [seq, rec] : dest.unacked) {
      if (rec.sent) continue;
      rec.sent = true;
      out.push_back(rec.bytes);
    }
    break;
  }
  return out;
}

uint64_t EgressBuffer::MarkDisconnected(uint32_t dest_worker) {
  MutexLock lock(mutex_);
  uint64_t requeued = 0;
  for (DestState& dest : dests_) {
    if (dest.worker != dest_worker) continue;
    for (auto& [seq, rec] : dest.unacked) {
      if (rec.sent) {
        rec.sent = false;
        requeued += rec.tuple_count;
      }
    }
    break;
  }
  return requeued;
}

uint64_t EgressBuffer::UnackedFrames() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const DestState& dest : dests_) {
    total += dest.unacked.size();
    if (!dest.staging.empty()) ++total;  // a frame waiting to be cut
  }
  return total;
}

void EgressBuffer::Shutdown() {
  MutexLock lock(mutex_);
  shutdown_ = true;
  window_cv_.NotifyAll();
}

// ---------------------------------------------------------------------------
// IngressQueue

IngressQueue::IngressQueue(std::string stream) : stream_(std::move(stream)) {}

void IngressQueue::SetAckSink(
    std::function<void(uint32_t, std::vector<uint64_t>)> sink) {
  MutexLock lock(mutex_);
  ack_sink_ = std::move(sink);
}

void IngressQueue::EmitAcks(std::vector<std::pair<uint32_t, uint64_t>> acks) {
  if (acks.empty()) return;
  std::function<void(uint32_t, std::vector<uint64_t>)> sink;
  {
    MutexLock lock(mutex_);
    sink = ack_sink_;
  }
  if (!sink) return;
  // Group by sender task (acks rarely span tasks; keep it simple).
  for (size_t i = 0; i < acks.size();) {
    uint32_t task = acks[i].first;
    std::vector<uint64_t> seqs;
    size_t j = i;
    while (j < acks.size()) {
      if (acks[j].first == task) {
        seqs.push_back(acks[j].second);
        acks.erase(acks.begin() + static_cast<long>(j));
      } else {
        ++j;
      }
    }
    sink(task, std::move(seqs));
  }
}

IngressQueue::Disposition IngressQueue::OfferFrame(
    uint64_t incarnation, const net::TupleBatch& batch) {
  std::vector<std::pair<uint32_t, uint64_t>> acks;
  Disposition disposition = Disposition::kAccepted;
  {
    MutexLock lock(mutex_);
    if (incarnation < incarnation_) return Disposition::kStale;
    if (incarnation > incarnation_) {
      // New sender incarnation: frame-level tracking restarts (the restored
      // egress buffer renumbers nothing — it resends its snapshot — but a
      // fresh incarnation may also reuse sequences for frames that were
      // acked and pruned before the checkpoint; tuple-level dedup ledgers
      // are the guard there).
      incarnation_ = incarnation;
      channels_.clear();
    }
    TaskChannel& channel = channels_[batch.sender_task];
    if (channel.completed.count(batch.seq) != 0) {
      // Fully resolved earlier; the ack was lost — re-ack.
      acks.emplace_back(batch.sender_task, batch.seq);
      disposition = Disposition::kDuplicate;
    } else if (channel.in_progress.count(batch.seq) != 0) {
      // Original still being processed; its ack fires on resolution.
      disposition = Disposition::kDuplicate;
    } else if (batch.tuples.empty()) {
      acks.emplace_back(batch.sender_task, batch.seq);
    } else {
      channel.in_progress[batch.seq].outstanding =
          static_cast<uint32_t>(batch.tuples.size());
      for (const net::WireTuple& tuple : batch.tuples) {
        PendingTuple pending;
        pending.wire_id = tuple.wire_id;
        pending.spout_time = tuple.spout_time;
        pending.payload = batch.payloads[tuple.payload_index];
        pending.sender_task = batch.sender_task;
        pending.incarnation = incarnation;
        pending.seq = batch.seq;
        pending.priority = static_cast<dsps::TuplePriority>(tuple.priority);
        queue_.push_back(std::move(pending));
      }
    }
  }
  EmitAcks(std::move(acks));
  return disposition;
}

size_t IngressQueue::Drain(size_t max, std::vector<PendingTuple>* out) {
  MutexLock lock(mutex_);
  size_t n = 0;
  while (n < max && !queue_.empty()) {
    out->push_back(std::move(queue_.front()));
    queue_.pop_front();
    ++n;
  }
  return n;
}

bool IngressQueue::TrackInflight(const PendingTuple& tuple) {
  MutexLock lock(mutex_);
  auto [it, inserted] = inflight_.try_emplace(tuple.wire_id);
  it->second.push_back(
      FrameKey{tuple.sender_task, tuple.incarnation, tuple.seq});
  return inserted;
}

void IngressQueue::ResolveRefLocked(
    const FrameKey& key, std::vector<std::pair<uint32_t, uint64_t>>* acks) {
  if (key.incarnation != incarnation_) return;  // stale sender
  auto channel_it = channels_.find(key.sender_task);
  if (channel_it == channels_.end()) return;
  TaskChannel& channel = channel_it->second;
  auto frame_it = channel.in_progress.find(key.seq);
  if (frame_it == channel.in_progress.end()) return;
  if (--frame_it->second.outstanding > 0) return;
  channel.in_progress.erase(frame_it);
  channel.completed.insert(key.seq);
  channel.completed_fifo.push_back(key.seq);
  while (channel.completed_fifo.size() > kCompletedCapacity) {
    channel.completed.erase(channel.completed_fifo.front());
    channel.completed_fifo.pop_front();
  }
  acks->emplace_back(key.sender_task, key.seq);
}

void IngressQueue::ResolveInflight(uint64_t wire_id) {
  std::vector<std::pair<uint32_t, uint64_t>> acks;
  {
    MutexLock lock(mutex_);
    auto it = inflight_.find(wire_id);
    if (it == inflight_.end()) return;
    std::vector<FrameKey> refs = std::move(it->second);
    inflight_.erase(it);
    for (const FrameKey& key : refs) ResolveRefLocked(key, &acks);
  }
  EmitAcks(std::move(acks));
}

void IngressQueue::ResolveNow(const PendingTuple& tuple) {
  std::vector<std::pair<uint32_t, uint64_t>> acks;
  {
    MutexLock lock(mutex_);
    FrameKey key{tuple.sender_task, tuple.incarnation, tuple.seq};
    ResolveRefLocked(key, &acks);
  }
  EmitAcks(std::move(acks));
}

void IngressQueue::MarkDone() {
  MutexLock lock(mutex_);
  done_ = true;
}

bool IngressQueue::Exhausted() const {
  MutexLock lock(mutex_);
  return done_ && queue_.empty() && inflight_.empty();
}

size_t IngressQueue::QueuedTuples() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

size_t IngressQueue::InflightTuples() const {
  MutexLock lock(mutex_);
  return inflight_.size();
}

bool IngressQueue::WantsPause() const {
  MutexLock lock(mutex_);
  return queue_.size() >= kPauseThreshold;
}

// ---------------------------------------------------------------------------
// IngressSpout

bool IngressSpout::NextTuple(dsps::Collector* collector) {
  batch_.clear();
  if (queue_->Drain(32, &batch_) == 0) {
    if (queue_->Exhausted()) return false;
    // SpoutLoop does not pace idle spouts; sleep here so an empty ingress
    // does not spin a core.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return true;
  }
  for (IngressQueue::PendingTuple& tuple : batch_) {
    std::vector<Value> values = *tuple.payload;
    // Prioritized emits re-stamp the sender-side tier so local overload
    // protection sheds a forwarded tuple exactly as its origin would.
    if (acking_ && tuple.wire_id != 0) {
      if (queue_->TrackInflight(tuple)) {
        collector->EmitRootedPrioritized(tuple.priority, tuple.wire_id,
                                         std::move(values));
      }
      // else: a retransmitted duplicate of a tree still in flight — its
      // frame ref is attached and resolves when the original does.
    } else {
      collector->EmitPrioritized(tuple.priority, std::move(values));
      queue_->ResolveNow(tuple);
    }
  }
  return true;
}

void IngressSpout::Ack(uint64_t message_id) {
  queue_->ResolveInflight(message_id);
}

void IngressSpout::Fail(uint64_t message_id) {
  // A failed tree still resolves the frame: retransmission could not help
  // (replays are exhausted) and holding the seq would stall the sender's
  // window. The loss is visible in the sender's failed-tree metrics.
  queue_->ResolveInflight(message_id);
}

// ---------------------------------------------------------------------------
// ForwardingBolt

class ForwardingBolt::Capture : public dsps::Collector {
 public:
  Capture(EgressBuffer* buffer, uint64_t fresh_seed, uint64_t* fresh_counter)
      : buffer_(buffer),
        fresh_seed_(fresh_seed),
        fresh_counter_(fresh_counter) {}

  void Begin(const dsps::Tuple* input, dsps::Collector* real) {
    input_ = input;
    real_ = real;
    emit_ordinal_ = 0;
  }

  void Emit(std::vector<Value> values) override {
    CaptureValues(values);
    real_->Emit(std::move(values));
  }
  void EmitRooted(uint64_t message_id, std::vector<Value> values) override {
    // From a bolt EmitRooted degrades to Emit (see Collector docs).
    CaptureValues(values);
    real_->EmitRooted(message_id, std::move(values));
  }
  void EmitDirect(int task_index, std::vector<Value> values) override {
    // kDirect edges are always worker-local (placement validation), so
    // direct emissions are never forwarded.
    real_->EmitDirect(task_index, std::move(values));
  }
  void ForwardDirect(int task_index, const dsps::Tuple& input) override {
    real_->ForwardDirect(task_index, input);  // worker-local, like EmitDirect
  }

 private:
  void CaptureValues(const std::vector<Value>& values) {
    uint64_t wire_id;
    ++emit_ordinal_;
    if (input_->dedup_id() != 0) {
      wire_id = ChainWireId(input_->dedup_id(), emit_ordinal_);
    } else {
      wire_id = Splitmix64(fresh_seed_ ^ ++*fresh_counter_);
    }
    buffer_->Add(std::make_shared<const std::vector<Value>>(values), wire_id,
                 input_->spout_time(), input_->priority());
  }

  EgressBuffer* buffer_;
  uint64_t fresh_seed_;
  uint64_t* fresh_counter_;
  const dsps::Tuple* input_ = nullptr;
  dsps::Collector* real_ = nullptr;
  uint64_t emit_ordinal_ = 0;
};

ForwardingBolt::ForwardingBolt(std::unique_ptr<dsps::Bolt> inner,
                               std::shared_ptr<EgressGroup> group)
    : inner_(std::move(inner)), group_(std::move(group)) {
  inner_snapshot_ = dynamic_cast<dsps::Snapshottable*>(inner_.get());
}

void ForwardingBolt::Prepare(const dsps::TaskContext& context) {
  inner_->Prepare(context);
  buffer_ = group_->buffers.at(static_cast<size_t>(context.task_index));
  fresh_seed_ = FreshSeed(context.task_index);
}

void ForwardingBolt::Execute(const dsps::Tuple& input,
                             dsps::Collector* collector) {
  Capture capture(buffer_.get(), fresh_seed_, &fresh_counter_);
  capture.Begin(&input, collector);
  inner_->Execute(input, &capture);
}

void ForwardingBolt::Cleanup() { inner_->Cleanup(); }

Status ForwardingBolt::SnapshotState(std::string* out) const {
  out->clear();
  ByteWriter writer(out);
  writer.PutU32(kForwardingSnapshotMagic);
  writer.PutU8(inner_snapshot_ != nullptr ? 1 : 0);
  if (inner_snapshot_ != nullptr) {
    std::string inner_bytes;
    INSIGHT_RETURN_NOT_OK(inner_snapshot_->SnapshotState(&inner_bytes));
    writer.PutString(inner_bytes);
  }
  std::string egress_bytes;
  INSIGHT_RETURN_NOT_OK(buffer_->Snapshot(&egress_bytes));
  writer.PutString(egress_bytes);
  return Status::OK();
}

Status ForwardingBolt::RestoreState(const std::string& bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  uint8_t has_inner = 0;
  if (!reader.GetU32(&magic) || magic != kForwardingSnapshotMagic ||
      !reader.GetU8(&has_inner)) {
    return Status::ParseError("forwarding snapshot: bad header");
  }
  if (has_inner != 0) {
    std::string inner_bytes;
    if (!reader.GetString(&inner_bytes)) {
      return Status::ParseError("forwarding snapshot: truncated inner state");
    }
    if (inner_snapshot_ == nullptr) {
      return Status::FailedPrecondition(
          "forwarding snapshot has inner state but bolt is not Snapshottable");
    }
    INSIGHT_RETURN_NOT_OK(inner_snapshot_->RestoreState(inner_bytes));
  }
  std::string egress_bytes;
  if (!reader.GetString(&egress_bytes) || !reader.exhausted()) {
    return Status::ParseError("forwarding snapshot: truncated egress state");
  }
  return buffer_->Restore(egress_bytes);
}

// ---------------------------------------------------------------------------
// EgressBolt

EgressBolt::EgressBolt(std::shared_ptr<EgressGroup> group)
    : group_(std::move(group)) {}

void EgressBolt::Prepare(const dsps::TaskContext& context) {
  buffer_ = group_->buffers.at(static_cast<size_t>(context.task_index));
  fresh_seed_ = FreshSeed(context.task_index);
}

void EgressBolt::Execute(const dsps::Tuple& input,
                         dsps::Collector* collector) {
  (void)collector;  // terminal: the remote workers are the subscribers
  uint64_t wire_id = input.dedup_id() != 0
                         ? Splitmix64(input.dedup_id() ^ kEgressHopSalt)
                         : Splitmix64(fresh_seed_ ^ ++fresh_counter_);
  buffer_->Add(input.payload(), wire_id, input.spout_time(),
               input.priority());
}

Status EgressBolt::SnapshotState(std::string* out) const {
  out->clear();
  ByteWriter writer(out);
  writer.PutU32(kEgressBoltSnapshotMagic);
  std::string egress_bytes;
  INSIGHT_RETURN_NOT_OK(buffer_->Snapshot(&egress_bytes));
  writer.PutString(egress_bytes);
  return Status::OK();
}

Status EgressBolt::RestoreState(const std::string& bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  std::string egress_bytes;
  if (!reader.GetU32(&magic) || magic != kEgressBoltSnapshotMagic ||
      !reader.GetString(&egress_bytes) || !reader.exhausted()) {
    return Status::ParseError("egress bolt snapshot: bad header");
  }
  return buffer_->Restore(egress_bytes);
}

}  // namespace dist
}  // namespace insight
