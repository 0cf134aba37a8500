#ifndef INSIGHT_CEP_VIEW_H_
#define INSIGHT_CEP_VIEW_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cep/event.h"
#include "common/status.h"

namespace insight {
namespace cep {

/// The EPL view kinds used by the system. Chains combine `std:groupwin(f)`
/// with one data window, mirroring Listing 1:
///   bus.std:lastevent()
///   bus.std:groupwin(location).win:length(l)
///   thresholdLocation.win:keepall()
enum class ViewKind {
  kLastEvent,    // std:lastevent()
  kLength,       // win:length(n)
  kLengthBatch,  // win:length_batch(n)
  kTime,         // win:time(seconds)
  kTimeBatch,    // win:time_batch(seconds)
  kKeepAll,      // win:keepall()
  kGroupWin,     // std:groupwin(field)
  kUnique,       // std:unique(f1, f2, ...) — latest event per key
};

struct ViewSpec {
  ViewKind kind = ViewKind::kKeepAll;
  /// kLength / kLengthBatch: window size in events.
  size_t length = 0;
  /// kTime / kTimeBatch: window duration.
  MicrosT duration_micros = 0;
  /// kGroupWin: grouping field name.
  std::string group_field;
  /// kUnique: key field names (the latest event per distinct key is kept —
  /// this is how dynamically refreshed thresholds replace stale ones).
  std::vector<std::string> unique_fields;

  static ViewSpec LastEvent() { return {ViewKind::kLastEvent, 0, 0, ""}; }
  static ViewSpec Length(size_t n) { return {ViewKind::kLength, n, 0, ""}; }
  static ViewSpec LengthBatch(size_t n) {
    return {ViewKind::kLengthBatch, n, 0, ""};
  }
  static ViewSpec Time(MicrosT micros) { return {ViewKind::kTime, 0, micros, ""}; }
  static ViewSpec TimeBatch(MicrosT micros) {
    return {ViewKind::kTimeBatch, 0, micros, ""};
  }
  static ViewSpec KeepAll() { return {ViewKind::kKeepAll, 0, 0, ""}; }
  static ViewSpec GroupWin(std::string field) {
    ViewSpec spec;
    spec.kind = ViewKind::kGroupWin;
    spec.group_field = std::move(field);
    return spec;
  }
  static ViewSpec Unique(std::vector<std::string> fields) {
    ViewSpec spec;
    spec.kind = ViewKind::kUnique;
    spec.unique_fields = std::move(fields);
    return spec;
  }

  std::string ToString() const;
};

/// Ordering for Values usable as map keys: numerics compare by value, other
/// types by (type rank, content).
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const;
};

struct ValueVectorLess {
  bool operator()(const std::vector<Value>& a, const std::vector<Value>& b) const;
};

/// Hash/equality for Values usable as unordered_map keys, consistent with
/// Value::Equals: int 5 and double 5.0 hash identically (both hash their
/// double image, with -0.0 collapsed onto +0.0).
struct ValueHash {
  size_t operator()(const Value& v) const;
};

struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a.Equals(b); }
};

struct ValueVectorHash {
  size_t operator()(const std::vector<Value>& v) const;
};

struct ValueVectorEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const;
};

/// Contiguous ring buffer of events, oldest first. Replaces std::deque on the
/// window hot path: a sliding window at steady state (push_back + pop_front)
/// churns deque chunk allocations, while the ring only allocates on growth.
class EventRing {
 public:
  EventRing() = default;

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  /// i = 0 is the oldest retained event.
  const EventPtr& operator[](size_t i) const {
    return slots_[(head_ + i) & mask_];
  }
  const EventPtr& front() const { return slots_[head_]; }
  const EventPtr& back() const { return (*this)[count_ - 1]; }

  void push_back(EventPtr event) {
    if (count_ == slots_.size()) Grow();
    slots_[(head_ + count_) & mask_] = std::move(event);
    ++count_;
  }

  void pop_front() {
    slots_[head_] = nullptr;  // release the reference
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// pop_front that hands the evicted event to the caller — no refcount
  /// round-trip for evict-and-inspect loops.
  EventPtr TakeFront() {
    EventPtr ev = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --count_;
    return ev;
  }

  void clear() {
    for (size_t i = 0; i < count_; ++i) slots_[(head_ + i) & mask_] = nullptr;
    head_ = 0;
    count_ = 0;
  }

  class const_iterator {
   public:
    const_iterator(const EventRing* ring, size_t pos) : ring_(ring), pos_(pos) {}
    const EventPtr& operator*() const { return (*ring_)[pos_]; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const const_iterator& other) const {
      return pos_ != other.pos_;
    }

   private:
    const EventRing* ring_;
    size_t pos_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, count_}; }

 private:
  void Grow();

  std::vector<EventPtr> slots_;  // size is a power of two (or empty)
  size_t mask_ = 0;
  size_t head_ = 0;
  size_t count_ = 0;
};

/// Materialized window state for one FROM source. Create() validates the
/// chain (at most one groupwin, exactly one data view).
class Window {
 public:
  static Result<std::unique_ptr<Window>> Create(const std::vector<ViewSpec>& chain,
                                                EventTypePtr type);

  /// Inserts an event; any events the window expels (length overflow, batch
  /// flush, time expiry at the event's timestamp) are appended to *expired
  /// when non-null.
  void Insert(const EventPtr& event, std::vector<EventPtr>* expired = nullptr);

  /// Expires time-window contents older than `now - duration`.
  void AdvanceTime(MicrosT now, std::vector<EventPtr>* expired = nullptr);

  bool grouped() const { return group_field_index_ >= 0; }
  int group_field_index() const { return group_field_index_; }
  const std::string& group_field() const { return group_field_; }
  /// Kind of the single data view in the chain.
  ViewKind data_kind() const { return data_view_.kind; }
  /// Field indexes forming the kUnique key (empty otherwise).
  const std::vector<int>& unique_field_indexes() const {
    return unique_field_indexes_;
  }

  /// Contents of an ungrouped window.
  const EventRing& Contents() const;
  /// Contents of one group (nullptr when the key was never seen). Only valid
  /// for grouped windows.
  const EventRing* GroupContents(const Value& key) const;
  /// Invokes fn(event) over every event currently retained.
  void ForEach(const std::function<void(const EventPtr&)>& fn) const;
  /// Grouped windows: fn(key, contents) per group in ValueLess key order
  /// (buckets that have drained to empty are skipped).
  void ForEachGroup(
      const std::function<void(const Value&, const EventRing&)>& fn) const;

  /// Template variants of the above for hot paths: no std::function, so no
  /// per-call allocation for capturing lambdas.
  template <typename Fn>
  void ForEachEvent(Fn&& fn) const {
    if (data_view_.kind == ViewKind::kUnique) {
      for (const auto& [key, event] : unique_) fn(event);
      return;
    }
    if (grouped()) {
      for (const auto& [key, bucket] : groups_) {
        for (const EventPtr& e : bucket.events) fn(e);
      }
    } else {
      for (const EventPtr& e : global_.events) fn(e);
    }
  }
  template <typename Fn>
  void ForEachGroupT(Fn&& fn) const {
    for (const auto& [key, bucket] : groups_) {
      if (!bucket.events.empty()) fn(key, bucket.events);
    }
  }

  size_t TotalSize() const;
  /// Removes all contents.
  void Clear();

  const std::vector<ViewSpec>& chain() const { return chain_; }

 private:
  Window() = default;

  struct Bucket {
    EventRing events;
  };

  void InsertInto(Bucket* bucket, const EventPtr& event,
                  std::vector<EventPtr>* expired);
  void ExpireBucket(Bucket* bucket, MicrosT now, std::vector<EventPtr>* expired);

  std::vector<ViewSpec> chain_;
  ViewSpec data_view_;
  std::string group_field_;
  int group_field_index_ = -1;
  Bucket global_;
  std::map<Value, Bucket, ValueLess> groups_;
  /// kUnique storage: latest event per key.
  std::vector<int> unique_field_indexes_;
  std::map<std::vector<Value>, EventPtr, ValueVectorLess> unique_;
  /// Probe key reused by Insert so steady-state kUnique refreshes (the
  /// threshold-update path) do not allocate a key vector per event.
  std::vector<Value> unique_key_scratch_;
};

}  // namespace cep
}  // namespace insight

#endif  // INSIGHT_CEP_VIEW_H_
