#ifndef INSIGHT_DSPS_TUPLE_H_
#define INSIGHT_DSPS_TUPLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cep/event.h"
#include "common/clock.h"
#include "common/status.h"
#include "dsps/overload.h"
#include "dsps/payload_pool.h"

namespace insight {
namespace dsps {

using cep::Value;

/// Declared output fields of a component, Storm-style. Name lookups go
/// through a precomputed hash index (first declaration wins for duplicate
/// names, matching the old linear scan).
///
/// Every Fields object carries a process-unique id(), drawn at construction
/// and redrawn on assignment (a copy takes a fresh one). Caches keyed by id()
/// therefore never confuse two schemas, even when a freed schema's address
/// is reused by another.
class Fields {
 public:
  Fields() = default;
  Fields(std::initializer_list<std::string> names) : names_(names) {
    BuildIndex();
  }
  explicit Fields(std::vector<std::string> names) : names_(std::move(names)) {
    BuildIndex();
  }
  // Copies, never moves (a moved-from schema would keep an id that names
  // other contents); schemas are built once per component.
  Fields(const Fields& other) : names_(other.names_), index_(other.index_) {}
  Fields& operator=(const Fields& other) {
    if (this != &other) {
      names_ = other.names_;
      index_ = other.index_;
      id_ = NextId();
    }
    return *this;
  }

  /// Process-unique identity of this schema (never 0).
  uint64_t id() const { return id_; }

  int IndexOf(const std::string& name) const {
    return index_.Find(name, [this](size_t i) -> const std::string& {
      return names_[i];
    });
  }
  const std::vector<std::string>& names() const { return names_; }
  size_t size() const { return names_.size(); }

 private:
  void BuildIndex() {
    index_.Build(names_.size(), /*keep_first=*/true,
                 [this](size_t i) -> const std::string& { return names_[i]; });
  }

  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<std::string> names_;
  cep::detail::NameIndex index_;
  uint64_t id_ = NextId();
};

/// A data tuple flowing through the topology. Values are positionally
/// aligned with the emitting component's declared Fields. `spout_time`
/// carries the originating spout emission time so bolts can report
/// end-to-end latency.
///
/// The value payload is a shared immutable buffer: copying a Tuple (as
/// shuffle/fields/all fan-out does, once per downstream task) bumps a
/// refcount instead of deep-copying N values. Per-delivery metadata
/// (spout_time, root_key, edge_id) stays by-value in the Tuple itself.
///
/// The schema is borrowed, not owned: a tuple points at a Fields that must
/// outlive it. LocalRuntime owns the schema of every tuple it emits, so
/// copying or dropping a tuple writes nothing but the payload's refcount.
class Tuple {
 public:
  using Payload = std::shared_ptr<const std::vector<Value>>;

  Tuple() = default;
  Tuple(const Fields* fields, std::vector<Value> values, MicrosT spout_time = 0)
      : fields_(fields),
        // allocate_shared with the thread-local block cache: an interior
        // executor reuses the block it just freed for its input's payload,
        // so forwarding hops allocate nothing for the shared buffer.
        values_(std::allocate_shared<std::vector<Value>>(
            detail::PayloadAllocator<std::vector<Value>>(),
            std::move(values))),
        spout_time_(spout_time) {}
  /// Shares an existing payload (fan-out copies).
  Tuple(const Fields* fields, Payload payload, MicrosT spout_time = 0)
      : fields_(fields), values_(std::move(payload)), spout_time_(spout_time) {}
  /// For callers outside a runtime: the caller keeps `fields` alive for as
  /// long as the tuple and its copies live.
  Tuple(const std::shared_ptr<const Fields>& fields, std::vector<Value> values,
        MicrosT spout_time = 0)
      : Tuple(fields.get(), std::move(values), spout_time) {}
  Tuple(const std::shared_ptr<const Fields>& fields, Payload payload,
        MicrosT spout_time = 0)
      : Tuple(fields.get(), std::move(payload), spout_time) {}

  const Fields& fields() const { return *fields_; }
  /// The schema, or null for a default-constructed tuple.
  const Fields* fields_ptr() const { return fields_; }
  const std::vector<Value>& values() const {
    static const std::vector<Value> kEmpty;
    return values_ != nullptr ? *values_ : kEmpty;
  }
  /// The shared value buffer; tuples delivered to sibling tasks from one
  /// Emit share the identical buffer.
  const Payload& payload() const { return values_; }
  size_t size() const { return values_ != nullptr ? values_->size() : 0; }

  const Value& Get(size_t index) const { return (*values_)[index]; }
  Result<Value> GetByField(const std::string& name) const {
    int idx = fields_->IndexOf(name);
    if (idx < 0) return Status::NotFound("tuple has no field '" + name + "'");
    return (*values_)[static_cast<size_t>(idx)];
  }

  MicrosT spout_time() const { return spout_time_; }
  void set_spout_time(MicrosT t) { spout_time_ = t; }

  /// Reliability anchoring (src/reliability): `root_key` identifies the
  /// tuple tree this tuple belongs to (0 = untracked, the default for
  /// topologies without acking); `edge_id` is this tuple instance's random
  /// id, XOR-combined by the Acker. Both are runtime-managed — components
  /// never set them.
  uint64_t root_key() const { return root_key_; }
  uint64_t edge_id() const { return edge_id_; }
  void set_root_key(uint64_t key) { root_key_ = key; }
  void set_edge_id(uint64_t id) { edge_id_ = id; }

  /// Replay-stable identity (0 = none): a hash chained from the spout
  /// message id through each emission hop, independent of the replay
  /// attempt. Checkpointed tasks record executed ids in a DedupLedger and
  /// suppress re-execution of replayed duplicates (see DESIGN.md "State &
  /// recovery"). Runtime-managed, like root_key/edge_id.
  uint64_t dedup_id() const { return dedup_id_; }
  void set_dedup_id(uint64_t id) { dedup_id_ = id; }

  /// Shedding tier (see dsps/overload.h). Assigned from the emitting
  /// component's declared priority at the spout and inherited through bolt
  /// executions; the load shedder drops lowest-priority-first above its
  /// occupancy watermarks. Runtime-managed, like root_key/edge_id.
  TuplePriority priority() const { return priority_; }
  void set_priority(TuplePriority p) { priority_ = p; }

  /// Trace span anchoring (src/observability): nonzero iff the originating
  /// root emission was sampled. `trace_enqueue_micros` stamps when this
  /// instance was staged for delivery, so the consumer can record the
  /// queue-wait span. Runtime-managed, like root_key/edge_id.
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }
  MicrosT trace_enqueue_micros() const { return trace_enqueue_micros_; }
  void set_trace_enqueue_micros(MicrosT t) { trace_enqueue_micros_ = t; }

  std::string ToString() const {
    std::string out = "(";
    const std::vector<Value>& vals = values();
    for (size_t i = 0; i < vals.size(); ++i) {
      if (i > 0) out += ", ";
      out += fields_->names()[i] + "=" + vals[i].ToString();
    }
    out += ")";
    return out;
  }

 private:
  const Fields* fields_ = nullptr;
  Payload values_;
  MicrosT spout_time_ = 0;
  uint64_t root_key_ = 0;
  uint64_t edge_id_ = 0;
  uint64_t dedup_id_ = 0;
  TuplePriority priority_ = TuplePriority::kNormal;
  uint64_t trace_id_ = 0;
  MicrosT trace_enqueue_micros_ = 0;
};

/// Positions of a fixed list of field names, resolved against the first
/// schema a lookup sees and reused for every tuple carrying that same schema
/// (all tuples of one output stream share one), recognised by Fields::id().
/// Tuples of any other schema are looked up by name. Safe to share between
/// threads: the resolved positions are published once and never change.
class FieldSlots {
 public:
  explicit FieldSlots(std::vector<std::string> names) : names_(std::move(names)) {}
  FieldSlots(const FieldSlots& other) : names_(other.names_) {}
  FieldSlots& operator=(const FieldSlots& other) {
    if (this != &other) {
      names_ = other.names_;
      delete resolved_.exchange(nullptr);
    }
    return *this;
  }
  ~FieldSlots() { delete resolved_.load(); }

  /// Index of the i-th name in `tuple`'s schema, or -1 when it has no such field.
  int IndexOf(const Tuple& tuple, size_t i) const {
    const Fields* schema = tuple.fields_ptr();
    if (schema == nullptr) return -1;
    const Resolved* resolved = resolved_.load(std::memory_order_acquire);
    if (resolved == nullptr) resolved = Resolve(*schema);
    if (resolved->schema_id == schema->id()) return resolved->slots[i];
    return schema->IndexOf(names_[i]);
  }

 private:
  struct Resolved {
    // An id, not an address: a later schema may be allocated where a freed
    // one lived, but never gets its id.
    uint64_t schema_id = 0;
    std::vector<int> slots;
  };

  const Resolved* Resolve(const Fields& schema) const {
    auto mine = std::make_unique<Resolved>(Resolved{schema.id(), {}});
    for (const std::string& name : names_) mine->slots.push_back(schema.IndexOf(name));
    const Resolved* expected = nullptr;
    if (resolved_.compare_exchange_strong(expected, mine.get(), std::memory_order_acq_rel)) {
      return mine.release();
    }
    return expected;  // another thread published first
  }

  std::vector<std::string> names_;
  mutable std::atomic<const Resolved*> resolved_{nullptr};
};

}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_TUPLE_H_
