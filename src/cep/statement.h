#ifndef INSIGHT_CEP_STATEMENT_H_
#define INSIGHT_CEP_STATEMENT_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cep/expr.h"
#include "cep/view.h"
#include "common/stats.h"
#include "common/status.h"

namespace insight {
namespace cep {

/// One FROM item: `<event_type>.<view-chain> as <alias>`.
struct StreamSource {
  std::string event_type;
  std::vector<ViewSpec> views;
  std::string alias;
};

/// One projected column. `name` defaults to the expression's text.
struct SelectItem {
  ExprPtr expr;
  std::string name;
};

/// One ORDER BY key.
struct OrderByItem {
  ExprPtr expr;
  bool descending = false;
};

/// The parsed/constructed form of an EPL statement, before compilation
/// against the engine's type registry.
struct StatementDef {
  std::string name;
  /// INSERT INTO target: fired matches are re-injected into the engine as
  /// events of this registered type ("the triggered events can be pushed
  /// further into the Esper engine feeding other rules", Section 2.1.2).
  /// Empty = plain statement.
  std::string insert_into;
  bool select_all = false;
  std::vector<SelectItem> select;
  std::vector<StreamSource> from;
  ExprPtr where;               // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;              // may be null
  /// Matches of one evaluation are sorted by these keys before delivery.
  std::vector<OrderByItem> order_by;
  /// Cap on matches delivered per evaluation (after ORDER BY); 0 = no cap.
  /// `ORDER BY avg(x) DESC LIMIT 3` yields the top-3 groups per event.
  size_t limit = 0;
  /// Event types whose arrival triggers join evaluation. Empty = all FROM
  /// types. The traffic rules set this to the bus stream so threshold
  /// refreshes do not fire detections by themselves.
  std::set<std::string> trigger_types;
};

/// A fired-rule output row delivered to listeners.
struct MatchResult {
  std::string statement_name;
  std::vector<std::pair<std::string, Value>> columns;

  /// First column with the given name; NotFound otherwise.
  Result<Value> Get(const std::string& column) const;
  std::string ToString() const;
};

/// Listener invoked for every group that passes HAVING on an evaluation
/// (Esper's UpdateListener). Keep these fast: they run on the engine path.
using Listener = std::function<void(const MatchResult&)>;

/// A compiled, stateful statement. Created via Statement::Compile; owned by
/// the Engine. Not thread-safe on its own (the Engine serializes access, as
/// Esper does per-engine).
class Statement {
 public:
  /// Compiles the definition: resolves expressions, builds windows, plans the
  /// join (group-window lookups and hash indexes for equi-join conjuncts),
  /// and — when the statement fits the incremental shape — an
  /// accumulator-based aggregation plan that avoids rescanning windows.
  static Result<std::unique_ptr<Statement>> Compile(
      StatementDef def, const std::map<std::string, EventTypePtr>& types);

  /// Processes one event: inserts it into every matching source window and,
  /// if the type triggers this statement, evaluates the join. Matches go to
  /// the registered listeners. Returns the number of matches emitted.
  size_t OnEvent(const EventPtr& event);

  void AddListener(Listener listener) { listeners_.push_back(std::move(listener)); }

  const std::string& name() const { return def_.name; }
  const StatementDef& def() const { return def_; }
  /// Whether this statement consumes the given event type.
  bool ConsumesType(const std::string& type_name) const;

  /// Cumulative matches emitted.
  size_t total_matches() const { return total_matches_; }
  /// Cumulative events consumed (insertions).
  size_t total_events() const { return total_events_; }

  /// Always false: every event runs through OnEvent. Kept only because the
  /// system benchmark (perfbench/) reads it for `cep.fast_path_share`; the
  /// runtime never calls it.
  bool UsingBatchFastPath() const { return false; }
  /// Sum of retained window sizes; memory-pressure proxy.
  size_t RetainedEvents() const;

  /// Whether the incremental aggregation plan is active (introspection for
  /// tests and benchmarks).
  bool incremental() const { return incremental_; }

  // --- Stateful recovery (DESIGN.md "State & recovery") ---

  /// Serializes this statement's operator state — every source window's
  /// retained events plus the event/match counters — into `writer`. Hash
  /// indexes, incremental accumulators, and group tables are derived state
  /// and are NOT serialized: RestoreState rebuilds them by replaying the
  /// retained events through the insertion path.
  void SnapshotState(ByteWriter* writer) const;

  /// Restores state written by SnapshotState against a statement compiled
  /// from the same definition. On any decode or schema mismatch the
  /// statement is reset to clean state and an error is returned — a corrupt
  /// snapshot can never leave partial state behind.
  Status RestoreState(ByteReader* reader);

  /// Drops all retained state (windows, indexes, accumulators, counters).
  void ResetState();

  /// Drops the retained state of every source of `event_type` only: its
  /// window, the hash indexes over it and, when it is the incrementally
  /// aggregated source, the group accumulators. Windows of other sources
  /// (e.g. a std:unique threshold window) and the counters are kept.
  void ResetSource(const std::string& event_type);

  /// Invokes fn(event) over every event retained by sources of
  /// `event_type`, source by source in FROM order.
  void ForEachRetained(const std::string& event_type,
                       const std::function<void(const EventPtr&)>& fn) const;

 private:
  Statement() = default;

  struct HashIndex {
    std::vector<int> field_indexes;  // fields of this source forming the key
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

  /// Per-source lookup plan for the join cascade.
  struct SourcePlan {
    // Equi-join conjuncts usable when all prior sources are bound:
    // this source's field index i must equal `bound_exprs[i]` evaluated on
    // the partial row.
    std::vector<int> my_fields;
    std::vector<const Expr*> bound_exprs;
    std::vector<int> conjunct_ids;  // conjuncts_ entry behind each pair
    // Lookup strategy.
    bool use_group_lookup = false;  // grouped window, group field in my_fields
    int group_expr_pos = -1;        // position in my_fields of the group field
    bool use_hash_index = false;
    int hash_index_id = -1;
  };

  struct Conjunct {
    const Expr* expr;
    uint32_t source_mask;       // sources referenced
    bool is_equi_used = false;  // enforced by a lookup plan; skip re-eval
  };

  /// How an aggregate is produced under the incremental plan.
  enum class IncAggSrc {
    kGroupCount,  // count(*): the group bucket's size
    kAccum,       // argument depends only on the grouped source: accumulator
    kRowConst,    // argument constant across the group's rows
  };
  struct IncAgg {
    AggFunc func = AggFunc::kCount;
    IncAggSrc src = IncAggSrc::kGroupCount;
    int accum_pos = -1;              // kAccum: index into inc_accum_args_
    const Expr* row_expr = nullptr;  // kRowConst: the argument
  };
  /// Running accumulator for one aggregated argument of one group. min/max
  /// go stale when a min/max-holding event is evicted; the next read rescans
  /// the bucket (which also refreshes sum, killing float drift).
  struct ArgAccum {
    double sum = 0.0;
    double min_v = std::numeric_limits<double>::infinity();
    double max_v = -std::numeric_limits<double>::infinity();
    bool minmax_valid = true;
  };
  struct GroupAccum {
    size_t count = 0;
    std::vector<ArgAccum> args;
  };

  /// Fallback GROUP BY state, persistent across evaluations so the table's
  /// nodes are reused instead of freed/reallocated per event. An entry is
  /// live for the current evaluation iff seq == eval_seq_.
  struct GroupState {
    uint64_t seq = 0;
    std::vector<uint32_t> rows;  // indexes into row_arena_ (by row, not slot)
  };

  struct Pending {
    std::vector<Value> sort_keys;
    MatchResult match;
  };

  JoinRow RowAt(size_t r) const {
    const size_t n = windows_.size();
    return JoinRow(row_arena_.data() + r * n, n);
  }

  void EvaluateJoin(std::vector<MatchResult>* out);
  void JoinRecurse(size_t depth, uint32_t bound_mask);
  bool ConjunctsPass(uint32_t bound_mask, uint32_t newly_bound,
                     const JoinRow& row);
  void EmitGroupsFallback();
  /// Fills agg_scratch_ for the rows in `row_ids`, or rows [0, nrows) when
  /// row_ids is null.
  void ComputeFallbackAggs(const std::vector<uint32_t>* row_ids, size_t nrows);
  /// HAVING-gates the representative row against agg_scratch_ and appends a
  /// Pending match. The no-match path allocates nothing.
  void EmitMatch(const JoinRow& representative);
  void FlushPending(std::vector<MatchResult>* out);

  /// Restore path of RestoreState: runs one event through the same
  /// window/index/accumulator insertion OnEvent uses, without triggering
  /// join evaluation or listeners.
  void InsertRestored(size_t source, const EventPtr& event);

  bool PlanIncremental();
  void EvaluateIncremental();
  void EmitIncrementalGroup(const Value& key, const EventRing& bucket,
                            EvalContext* ctx);
  void RescanAccum(GroupAccum* acc, const EventRing& bucket);
  void AccumInsert(const Event& e);
  void AccumRemove(const Event& e);

  StatementDef def_;
  SourceSchemas schemas_;
  std::vector<std::unique_ptr<Window>> windows_;
  std::vector<SourcePlan> plans_;
  std::vector<Conjunct> conjuncts_;
  std::vector<HashIndex> indexes_;                // global registry
  std::vector<std::vector<int>> source_indexes_;  // per-source index ids
  /// Unique aggregate nodes (per ToString); duplicated nodes share agg_id.
  std::vector<AggregateExpr*> aggregates_;
  std::vector<char> source_is_trigger_;
  std::vector<Listener> listeners_;
  size_t total_matches_ = 0;
  size_t total_events_ = 0;

  // --- evaluation scratch (reused across OnEvent calls; steady state does
  // not allocate on the no-match path) ---
  std::vector<const Event*> row_scratch_;        // current partial row
  std::vector<const Event*> row_arena_;          // completed rows, stride n
  std::vector<const Event*> accum_row_scratch_;  // only the grouped slot bound
  std::vector<EventPtr> expired_scratch_;
  std::vector<Value> probe_key_;
  std::vector<Value> group_key_scratch_;
  std::vector<Value> agg_scratch_;
  std::vector<RunningStats> stats_scratch_;
  std::vector<Pending> pending_;
  std::unordered_map<std::vector<Value>, GroupState, ValueVectorHash,
                     ValueVectorEq>
      group_table_;
  std::vector<std::pair<const std::vector<Value>*, GroupState*>> touched_groups_;
  uint64_t eval_seq_ = 0;

  // --- incremental aggregation plan ---
  bool incremental_ = false;
  bool inc_shape_a_ = false;  // single group via g's group lookup; else scan
  int inc_group_source_ = -1;
  std::vector<const Expr*> inc_accum_args_;  // distinct accumulated arguments
  std::vector<IncAgg> inc_aggs_;             // parallel to aggregates_
  std::vector<int> inc_gate_conjuncts_;      // conjuncts not touching g
  std::unordered_map<Value, GroupAccum, ValueHash, ValueEq> accums_;
};

}  // namespace cep
}  // namespace insight

#endif  // INSIGHT_CEP_STATEMENT_H_
