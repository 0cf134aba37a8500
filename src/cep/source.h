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
  Source(std::string key, EventTypePtr type, std::unique_ptr<Window> window)
      : key_(std::move(key)), type_(std::move(type)), window_(std::move(window)) {}

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

/// The sources of one engine, in creation order (the snapshot order).
class SourceSet {
 public:
  /// A source for (type, chain): the newest one with that key while it has
  /// received no event, otherwise a new one. The caller registers itself
  /// with Source::AddUser.
  Result<Source*> Acquire(const EventTypePtr& type,
                          const std::vector<ViewSpec>& chain);
  /// Drops every use `statement` makes of a source, and frees each source
  /// with its last user.
  void Release(const Statement* statement);

  const std::vector<std::unique_ptr<Source>>& sources() const {
    return sources_;
  }

 private:
  std::vector<std::unique_ptr<Source>> sources_;
};

}  // namespace cep
}  // namespace insight

#endif  // INSIGHT_CEP_SOURCE_H_
