#ifndef INSIGHT_RELIABILITY_REPLAY_H_
#define INSIGHT_RELIABILITY_REPLAY_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cep/event.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace insight {
namespace reliability {

/// Retry behaviour for failed (timed-out) tuple trees.
struct ReplayPolicy {
  /// Re-emissions allowed after the first attempt; when exhausted the tree
  /// is permanently failed and the spout's Fail callback fires.
  int max_replays = 3;
  /// Delay before the first replay; each further replay multiplies it by
  /// `backoff_factor`.
  MicrosT backoff_base_micros = 10'000;
  double backoff_factor = 2.0;
};

/// Holds the payload of every in-flight root tuple so a timed-out tree can
/// be re-emitted from the runtime without the spout keeping its own copy
/// (Storm keeps the equivalent pending map in the spout executor).
class ReplayBuffer {
 public:
  explicit ReplayBuffer(ReplayPolicy policy) : policy_(policy) {}

  ReplayBuffer(const ReplayBuffer&) = delete;
  ReplayBuffer& operator=(const ReplayBuffer&) = delete;

  /// Remembers a root tuple's values on first emission. Payloads are scoped
  /// by the emitting spout task: message ids only need to be unique among
  /// the in-flight messages of one (spout_component, spout_task) — two
  /// spouts reusing the same id space do not collide. A duplicate id within
  /// one spout task replaces the stored payload.
  void Store(uint64_t message_id, int spout_component, int spout_task,
             std::vector<cep::Value> values);

  /// The tree completed: drop the stored payload and any scheduled retry.
  /// Returns false if the id was unknown (already acked or given up).
  bool Ack(uint64_t message_id, int spout_component, int spout_task);

  /// The tree timed out. Schedules a backed-off retry on the owning spout
  /// task and returns true, or — when `max_replays` is exhausted or the id
  /// is unknown — erases the payload and returns false (permanent failure).
  bool Fail(uint64_t message_id, int spout_component, int spout_task,
            MicrosT now);

  struct Due {
    uint64_t message_id = 0;
    int attempt = 0;  // 1 for the first replay
    std::vector<cep::Value> values;
  };

  /// Retries owned by (spout_component, spout_task) whose backoff elapsed.
  std::vector<Due> TakeDue(int spout_component, int spout_task, MicrosT now);

  /// Permanently abandons one message: drops the payload and any scheduled
  /// retry regardless of remaining replay budget. Returns true if the id was
  /// known. Crash-loop containment uses this when a tree's spout task is
  /// permanently failed.
  bool Discard(uint64_t message_id, int spout_component, int spout_task);

  /// Abandons every scheduled retry owned by (spout_component, spout_task),
  /// dropping the payloads too. Returns the abandoned message ids so the
  /// runtime can fire their Fail callbacks.
  std::vector<uint64_t> DiscardAllFor(int spout_component, int spout_task);

  /// The delay Fail schedules for the given replay attempt (1 for the first
  /// replay); exposed for tests.
  MicrosT BackoffFor(int attempt) const;

  size_t stored() const;
  size_t scheduled_retries() const;

 private:
  /// Payload map key: message ids are scoped per spout task, so two spouts
  /// (or two tasks of one spout) reusing the same id space stay distinct.
  struct MessageKey {
    uint64_t message_id = 0;
    int spout_component = 0;
    int spout_task = 0;
    bool operator==(const MessageKey&) const = default;
  };
  struct MessageKeyHash {
    size_t operator()(const MessageKey& key) const;
  };
  struct Payload {
    std::vector<cep::Value> values;
    int attempts = 0;  // replays consumed so far
  };
  struct Scheduled {
    MicrosT due_micros = 0;
    uint64_t message_id = 0;
    int spout_component = 0;
    int spout_task = 0;
    int attempt = 0;
  };

  ReplayPolicy policy_;
  mutable Mutex mutex_{TMS_LOCK_RANK(50)};
  std::unordered_map<MessageKey, Payload, MessageKeyHash> payloads_
      GUARDED_BY(mutex_);
  std::deque<Scheduled> scheduled_ GUARDED_BY(mutex_);
};

}  // namespace reliability
}  // namespace insight

#endif  // INSIGHT_RELIABILITY_REPLAY_H_
