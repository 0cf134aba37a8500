#ifndef INSIGHT_CEP_SOURCE_H_
#define INSIGHT_CEP_SOURCE_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cep/expr.h"
#include "cep/view.h"
#include "common/static_analysis.h"

namespace insight {
namespace cep {

class Statement;

/// FROM items per statement (Statement::Compile rejects more): a source
/// evaluates accumulator arguments over a row this wide.
constexpr size_t kMaxStreamsPerStatement = 16;

/// Equality index over a window, keyed on a list of its type's fields.
struct HashIndex {
  std::vector<int> field_indexes;  // fields of the source forming the key
  // Raw Event pointers: the source window retains the owning EventPtr for
  // as long as an event is indexed (Remove runs on window expiry, while
  // the expired EventPtr is still live).
  std::unordered_map<std::vector<Value>, std::vector<const Event*>,
                     ValueVectorHash, ValueVectorEq>
      map;
  std::vector<Value> key_scratch;

  void Insert(const Event* e);
  void Remove(const Event* e);
};

/// Running accumulator for one aggregated argument of one group. min/max go
/// stale when a min/max-holding event is evicted; the next read rescans the
/// bucket (which also refreshes sum, killing float drift).
struct ArgAccum {
  double sum = 0.0;
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  bool minmax_valid = true;
};

struct GroupAccum {
  size_t count = 0;
  std::vector<ArgAccum> args;  // one per AccumColumn of the source
};

/// The state an engine keeps once per distinct (event type, view chain)
/// among its statements: the window, its hash indexes (one per distinct
/// key-field list) and, for a grouped window, the group accumulators (one
/// column per distinct aggregated argument). Statements reference sources
/// and only evaluate; every event enters each source of its type once.
class Source {
 public:
  /// `epoch` is the owning set's lookup epoch, bumped by every change to
  /// this source's contents.
  Source(std::string key, EventTypePtr type, std::unique_ptr<Window> window,
         uint64_t* epoch)
      : key_(std::move(key)),
        type_(std::move(type)),
        window_(std::move(window)),
        epoch_(epoch) {}

  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  /// "<event type>.<view chain>": sources with equal keys hold equal state
  /// when they have seen the same events.
  const std::string& key() const { return key_; }
  const EventTypePtr& type() const { return type_; }
  const Window& window() const { return *window_; }

  /// Inserts the event into the window, then keeps the indexes and the
  /// group accumulators in step: new event first, then each expired one.
  void Insert(const EventPtr& event);
  /// Drops the window contents, the index entries and the accumulators.
  void Clear();
  /// Whether any event was ever inserted. A statement compiled later joins
  /// this source only while it is false, so it still starts empty.
  bool received() const { return received_; }

  /// Id of the index keyed on `fields`, added when no index has that key.
  int AddIndex(const std::vector<int>& fields);
  const HashIndex& index(int id) const {
    return indexes_[static_cast<size_t>(id)];
  }

  /// Column position of the aggregated argument `arg` (which reads this
  /// source only), added when no column has its CanonicalString. `arg`
  /// stays registered until ReleaseAccumColumn: the column evaluates with
  /// the first expression still registered.
  int AddAccumColumn(const Expr* arg);
  void ReleaseAccumColumn(int column, const Expr* arg);
  size_t num_accum_columns() const { return columns_.size(); }

  /// The accumulators of group `key` whose window bucket is `bucket`,
  /// rebuilt from the bucket when they are out of step with it.
  GroupAccum* Accum(const Value& key, const EventRing& bucket);
  /// Recomputes every column of `acc` from the bucket: refreshes min/max
  /// and the sums of every statement reading this source.
  void RescanAccum(GroupAccum* acc, const EventRing& bucket);

  /// Statements holding this source, with the FROM position they hold it
  /// at; the source lives while this is non-empty.
  struct User {
    const Statement* statement;
    size_t position;
  };
  const std::vector<User>& users() const { return users_; }
  void AddUser(const Statement* statement, size_t position) {
    users_.push_back({statement, position});
  }
  void RemoveUser(const Statement* statement);

 private:
  struct AccumColumn {
    std::string key;         // CanonicalString of the argument
    int field_index = -1;    // argument is a plain field: read it directly
    std::vector<const Expr*> args;  // one per registration
  };

  double ColumnValue(const AccumColumn& column, const Event& e);
  void AccumInsert(const Event& e);
  void AccumRemove(const Event& e);

  std::string key_;
  EventTypePtr type_;
  std::unique_ptr<Window> window_;
  uint64_t* epoch_;
  std::vector<HashIndex> indexes_;
  std::vector<AccumColumn> columns_;
  std::unordered_map<Value, GroupAccum, ValueHash, ValueEq> accums_;
  std::vector<User> users_;
  bool received_ = false;
  std::vector<EventPtr> expired_scratch_;
  /// Every slot points at the event being accumulated, so an argument
  /// resolved against any statement's FROM positions reads it.
  std::array<const Event*, kMaxStreamsPerStatement> accum_row_{};
};

/// Identity of one lookup an incremental evaluation makes: a probe of
/// index `index_id` on `source`, or (index_id == -1) the group lookup on the
/// grouped `source`. `fields` holds, per key expression, the (source, field)
/// it reads: the field of the event a std:lastevent source binds, which is
/// the same for every statement. A key expression that is anything else
/// makes the lookup private to `owner`.
struct LookupKey {
  const Source* source = nullptr;
  int index_id = -1;
  std::vector<std::pair<const Source*, int>> fields;
  const Statement* owner = nullptr;  // null: shared by equal keys

  bool operator==(const LookupKey&) const = default;
};

/// One lookup shared by the statements in `users`, with its result. The
/// result is valid while the set's epoch equals `epoch`: the key
/// expressions read only bound lastevent events, so within one epoch every
/// user would compute the same result.
struct LookupSlot {
  LookupKey key;
  std::vector<const Statement*> users;
  uint64_t epoch = 0;  // never valid: the set's epoch starts at 1
  /// Probe: the matching events, null when there are none.
  const std::vector<const Event*>* candidates = nullptr;
  /// Group lookup: the group's key and window bucket (null when the group
  /// is absent or empty), and its accumulators when the source has columns.
  Value group_key;
  const EventRing* bucket = nullptr;
  GroupAccum* accum = nullptr;
};

/// The sources of one engine, in creation order (the snapshot order), and
/// the lookups its statements share (DESIGN.md "Shared lookups").
class SourceSet {
 public:
  SourceSet() = default;
  SourceSet(const SourceSet&) = delete;
  SourceSet& operator=(const SourceSet&) = delete;

  /// A source for (type, chain): the newest one with that key while it has
  /// received no event, otherwise a new one. The caller registers itself
  /// with Source::AddUser.
  Result<Source*> Acquire(const EventTypePtr& type,
                          const std::vector<ViewSpec>& chain);
  /// Drops every use `statement` makes of a source or a lookup slot, and
  /// frees each with its last user.
  void Release(const Statement* statement);

  const std::vector<std::unique_ptr<Source>>& sources() const {
    return sources_;
  }

  /// The slot for `key`, shared with every statement interning an equal
  /// key unless key.owner is set; `user` holds it until Release.
  LookupSlot* Intern(LookupKey key, const Statement* user);

  /// Whether `slot` holds this epoch's result. When it does not, it is
  /// stamped with the epoch and the caller fills it.
  bool Current(LookupSlot* slot) TMS_NO_ALLOC {
    if (slot->epoch == epoch_) {
      ++lookups_shared_;
      return true;
    }
    slot->epoch = epoch_;
    ++lookups_;
    return false;
  }

  /// Lookups executed, and lookups served from a slot filled earlier in
  /// the same epoch.
  uint64_t lookups() const { return lookups_; }
  uint64_t lookups_shared() const { return lookups_shared_; }
  void ResetCounters() {
    lookups_ = 0;
    lookups_shared_ = 0;
  }

 private:
  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<std::unique_ptr<LookupSlot>> slots_;
  /// Bumped by every Source::Insert and Source::Clear, by Release and by
  /// Intern, so no slot outlives the state it was filled from.
  uint64_t epoch_ = 1;
  uint64_t lookups_ = 0;
  uint64_t lookups_shared_ = 0;
};

}  // namespace cep
}  // namespace insight

#endif  // INSIGHT_CEP_SOURCE_H_
