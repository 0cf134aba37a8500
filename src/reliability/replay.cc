#include "reliability/replay.h"

#include <algorithm>

namespace insight {
namespace reliability {

namespace {

// splitmix64 finalizer: the message-key hash.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

size_t ReplayBuffer::MessageKeyHash::operator()(const MessageKey& key) const {
  uint64_t scope =
      (static_cast<uint64_t>(static_cast<uint32_t>(key.spout_component))
       << 32) |
      static_cast<uint64_t>(static_cast<uint32_t>(key.spout_task));
  return static_cast<size_t>(
      Mix64(key.message_id ^ Mix64(scope + 0x9e3779b97f4a7c15ULL)));
}

void ReplayBuffer::Store(uint64_t message_id, int spout_component,
                         int spout_task, std::vector<cep::Value> values) {
  MutexLock lock(mutex_);
  payloads_[MessageKey{message_id, spout_component, spout_task}] =
      Payload{std::move(values), 0};
}

bool ReplayBuffer::Ack(uint64_t message_id, int spout_component,
                       int spout_task) {
  MutexLock lock(mutex_);
  scheduled_.erase(
      std::remove_if(scheduled_.begin(), scheduled_.end(),
                     [&](const Scheduled& s) {
                       return s.message_id == message_id &&
                              s.spout_component == spout_component &&
                              s.spout_task == spout_task;
                     }),
      scheduled_.end());
  return payloads_.erase(
             MessageKey{message_id, spout_component, spout_task}) > 0;
}

MicrosT ReplayBuffer::BackoffFor(int attempt) const {
  double backoff = static_cast<double>(policy_.backoff_base_micros);
  for (int i = 1; i < attempt; ++i) backoff *= policy_.backoff_factor;
  return static_cast<MicrosT>(backoff);
}

bool ReplayBuffer::Fail(uint64_t message_id, int spout_component,
                        int spout_task, MicrosT now) {
  MutexLock lock(mutex_);
  auto it =
      payloads_.find(MessageKey{message_id, spout_component, spout_task});
  if (it == payloads_.end()) return false;
  if (it->second.attempts >= policy_.max_replays) {
    payloads_.erase(it);
    return false;
  }
  int attempt = ++it->second.attempts;
  scheduled_.push_back(Scheduled{now + BackoffFor(attempt),
                                 message_id, spout_component, spout_task,
                                 attempt});
  return true;
}

bool ReplayBuffer::Discard(uint64_t message_id, int spout_component,
                           int spout_task) {
  MutexLock lock(mutex_);
  scheduled_.erase(
      std::remove_if(scheduled_.begin(), scheduled_.end(),
                     [&](const Scheduled& s) {
                       return s.message_id == message_id &&
                              s.spout_component == spout_component &&
                              s.spout_task == spout_task;
                     }),
      scheduled_.end());
  return payloads_.erase(
             MessageKey{message_id, spout_component, spout_task}) > 0;
}

std::vector<ReplayBuffer::Due> ReplayBuffer::TakeDue(int spout_component,
                                                     int spout_task,
                                                     MicrosT now) {
  MutexLock lock(mutex_);
  std::vector<Due> due;
  for (auto it = scheduled_.begin(); it != scheduled_.end();) {
    if (it->spout_component == spout_component &&
        it->spout_task == spout_task && it->due_micros <= now) {
      auto payload = payloads_.find(
          MessageKey{it->message_id, spout_component, spout_task});
      if (payload != payloads_.end()) {
        due.push_back(Due{it->message_id, it->attempt, payload->second.values});
      }
      it = scheduled_.erase(it);
    } else {
      ++it;
    }
  }
  return due;
}

size_t ReplayBuffer::stored() const {
  MutexLock lock(mutex_);
  return payloads_.size();
}

size_t ReplayBuffer::scheduled_retries() const {
  MutexLock lock(mutex_);
  return scheduled_.size();
}

}  // namespace reliability
}  // namespace insight
