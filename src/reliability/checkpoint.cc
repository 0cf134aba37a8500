#include "reliability/checkpoint.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace insight {
namespace reliability {

DedupLedger::DedupLedger(size_t capacity) : capacity_(capacity) {
  TMS_CHECK(capacity_ > 0) << "dedup ledger capacity must be positive";
}

void DedupLedger::Insert(uint64_t id) {
  if (!set_.insert(id).second) return;
  fifo_.push_back(id);
  if (fifo_.size() > capacity_) {
    set_.erase(fifo_.front());
    fifo_.pop_front();
  }
  // Bounded-ledger invariant: eviction must keep the FIFO and the lookup set
  // in lockstep at or under capacity, or dedup state would grow without
  // bound inside every checkpoint.
  TMS_CHECK(fifo_.size() <= capacity_ && set_.size() == fifo_.size())
      << "dedup ledger out of bounds: " << fifo_.size() << " ids, set "
      << set_.size() << ", capacity " << capacity_;
}

void DedupLedger::Clear() {
  fifo_.clear();
  set_.clear();
}

void DedupLedger::Serialize(ByteWriter* writer) const {
  writer->PutU64(fifo_.size());
  for (uint64_t id : fifo_) writer->PutU64(id);
}

bool DedupLedger::Deserialize(ByteReader* reader) {
  Clear();
  uint64_t count;
  if (!reader->GetU64(&count) || count > capacity_) return false;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id;
    if (!reader->GetU64(&id)) {
      Clear();
      return false;
    }
    Insert(id);
  }
  return true;
}

CheckpointCoordinator::CheckpointCoordinator(Options options)
    : options_(options) {
  TMS_CHECK(options_.store != nullptr) << "checkpoint coordinator needs a store";
}

CheckpointCoordinator::~CheckpointCoordinator() { Stop(); }

int CheckpointCoordinator::RegisterTask(std::string key) {
  MutexLock lock(mutex_);
  TMS_CHECK(!started_) << "checkpoint tasks must register before Start";
  auto slot = std::make_unique<Slot>();
  slot->key = std::move(key);
  slot->next_due = options_.clock->NowMicros() + options_.interval_micros;
  slots_.push_back(std::move(slot));
  return static_cast<int>(slots_.size() - 1);
}

void CheckpointCoordinator::Start() {
  {
    MutexLock lock(mutex_);
    if (started_) return;
    started_ = true;
    stop_ = false;
  }
  persister_ = Thread([this] { PersisterLoop(); });
}

void CheckpointCoordinator::Stop() {
  {
    MutexLock lock(mutex_);
    if (!started_) return;
    stop_ = true;
    work_cv_.NotifyAll();
  }
  if (persister_.joinable()) persister_.join();
  MutexLock lock(mutex_);
  started_ = false;
}

bool CheckpointCoordinator::Due(int slot, MicrosT now) const {
  MutexLock lock(mutex_);
  const Slot& s = *slots_[static_cast<size_t>(slot)];
  return !s.in_flight && now >= s.next_due;
}

bool CheckpointCoordinator::CanSubmit(int slot) const {
  MutexLock lock(mutex_);
  return !slots_[static_cast<size_t>(slot)]->in_flight;
}

uint64_t CheckpointCoordinator::Submit(int slot, std::string bytes,
                                       DoneFn done) {
  MutexLock lock(mutex_);
  Slot& s = *slots_[static_cast<size_t>(slot)];
  // One in-flight checkpoint per task: the executor gates on Due/CanSubmit
  // and is the only submitter for its slot.
  TMS_CHECK(!s.in_flight) << "overlapping checkpoints for " << s.key;
  const uint64_t epoch = s.last_epoch + 1;
  // Epoch monotonicity: each checkpoint of a task must supersede the last,
  // restored or persisted, or GetLatest could resurrect stale state.
  TMS_CHECK(epoch > s.last_epoch) << "checkpoint epoch overflow for " << s.key;
  s.last_epoch = epoch;
  s.in_flight = true;
  s.pending_bytes = std::move(bytes);
  s.pending_done = std::move(done);
  queue_.push_back(slot);
  work_cv_.NotifyOne();
  return epoch;
}

Result<StateStore::Snapshot> CheckpointCoordinator::BarrierAndLoad(int slot) {
  std::string key;
  {
    MutexLock lock(mutex_);
    Slot& s = *slots_[static_cast<size_t>(slot)];
    while (s.in_flight) idle_cv_.Wait(mutex_);
    key = s.key;
  }
  Result<StateStore::Snapshot> snapshot = options_.store->GetLatest(key);
  if (snapshot.ok()) {
    MutexLock lock(mutex_);
    Slot& s = *slots_[static_cast<size_t>(slot)];
    if (snapshot->epoch > s.last_epoch) s.last_epoch = snapshot->epoch;
  }
  return snapshot;
}

void CheckpointCoordinator::PersisterLoop() {
  for (;;) {
    int slot;
    uint64_t epoch;
    std::string bytes;
    std::string key;
    DoneFn done;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !stop_) work_cv_.Wait(mutex_);
      // Drain the queue even when stopping: a submitted checkpoint carries
      // deferred acks that must still flush.
      if (queue_.empty()) return;
      slot = queue_.front();
      queue_.pop_front();
      Slot& s = *slots_[static_cast<size_t>(slot)];
      epoch = s.last_epoch;
      bytes = std::move(s.pending_bytes);
      done = std::move(s.pending_done);
      key = s.key;
      s.pending_bytes.clear();
      s.pending_done = nullptr;
    }
    Status status = options_.store->Put(key, epoch, bytes);
    if (!status.ok()) {
      INSIGHT_LOG(Warning) << "checkpoint persist failed for " << key
                           << " epoch " << epoch << ": " << status.ToString();
    }
    if (done) done(epoch, status);
    MutexLock lock(mutex_);
    Slot& s = *slots_[static_cast<size_t>(slot)];
    s.in_flight = false;
    s.next_due = options_.clock->NowMicros() + options_.interval_micros;
    // Counted only once the slot is released, under the same lock: whoever
    // sees a counter move finds `done` run and the slot free to submit again.
    if (status.ok()) {
      persisted_.fetch_add(1, std::memory_order_relaxed);
      bytes_persisted_.fetch_add(bytes.size(), std::memory_order_relaxed);
    } else {
      persist_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    idle_cv_.NotifyAll();
  }
}

}  // namespace reliability
}  // namespace insight
