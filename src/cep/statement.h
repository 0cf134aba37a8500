#ifndef INSIGHT_CEP_STATEMENT_H_
#define INSIGHT_CEP_STATEMENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cep/expr.h"
#include "cep/source.h"
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
/// The statement's last listener receives the match itself and may move
/// from it; earlier listeners receive copies.
using Listener = std::function<void(MatchResult&&)>;

/// A compiled statement: an evaluation plan over sources the engine shares
/// between its statements (DESIGN.md "Shared sources"). Created via
/// Statement::Compile; owned by the Engine. Not thread-safe on its own (the
/// Engine serializes access, as Esper does per-engine).
class Statement {
 public:
  /// Compiles the definition: resolves expressions, takes one source per
  /// FROM item from `sources`, plans the join (group-window lookups and hash
  /// indexes for equi-join conjuncts) and — when the statement fits the
  /// incremental shape — an accumulator-based aggregation plan that avoids
  /// rescanning windows. The statement releases its sources when destroyed,
  /// so `sources` must outlive it.
  static Result<std::unique_ptr<Statement>> Compile(
      StatementDef def, const std::map<std::string, EventTypePtr>& types,
      SourceSet* sources);

  ~Statement();
  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;

  /// Processes one event of a consumed type, after the engine inserted it
  /// into every source of that type: counts it and, when `trigger` (the
  /// type triggers this statement), evaluates the join. Matches go to the
  /// registered listeners. Returns the number of matches emitted.
  size_t OnEvent(bool trigger);
  /// Whether events of `type_name` trigger evaluation.
  bool TriggeredBy(const std::string& type_name) const;

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
  /// Sum of retained window sizes over this statement's sources (a source
  /// shared with other statements counts here too); memory-pressure proxy.
  size_t RetainedEvents() const;
  /// The source behind each FROM item, in FROM order.
  const std::vector<Source*>& sources() const { return sources_; }

  /// Whether the incremental aggregation plan is active (introspection for
  /// tests and benchmarks).
  bool incremental() const { return incremental_; }

  /// Drops the evaluation scratch that may point into source windows; the
  /// engine calls it whenever it clears a source.
  void ResetScratch() { group_table_.clear(); }
  /// Overwrites the counters (engine Restore; zero for a clean state).
  void SetCounters(size_t events, size_t matches) {
    total_events_ = events;
    total_matches_ = matches;
  }

  /// Invokes fn(event) over every event retained by sources of
  /// `event_type`, source by source in FROM order.
  void ForEachRetained(const std::string& event_type,
                       const std::function<void(const EventPtr&)>& fn) const;

 private:
  explicit Statement(SourceSet* source_set) : source_set_(source_set) {}

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
    int hash_index_id = -1;  // Source::index id on this FROM item's source
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
    int accum_pos = -1;              // kAccum: the grouped source's column
    const Expr* row_expr = nullptr;  // kRowConst: the argument
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
    const size_t n = sources_.size();
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

  /// Plans the incremental shape; on success registers the accumulated
  /// arguments as columns of the grouped source.
  bool PlanIncremental();
  /// The engine-wide key of a lookup on `source` keyed by `exprs`.
  LookupKey KeyOf(const Source* source, int index_id,
                  const std::vector<const Expr*>& exprs) const;
  void EvaluateIncremental();
  /// Emits the group whose non-empty window bucket is `bucket`; `acc` is its
  /// accumulators, set whenever the statement reads them.
  void EmitIncrementalGroup(const EventRing& bucket, GroupAccum* acc,
                            EvalContext* ctx);

  SourceSet* source_set_;
  StatementDef def_;
  SourceSchemas schemas_;
  std::vector<Source*> sources_;
  std::vector<SourcePlan> plans_;
  std::vector<Conjunct> conjuncts_;
  /// Unique aggregate nodes (per ToString); duplicated nodes share agg_id.
  std::vector<AggregateExpr*> aggregates_;
  std::vector<Listener> listeners_;
  size_t total_matches_ = 0;
  size_t total_events_ = 0;

  // --- evaluation scratch (reused across OnEvent calls; steady state does
  // not allocate on the no-match path) ---
  std::vector<const Event*> row_scratch_;        // current partial row
  std::vector<const Event*> row_arena_;          // completed rows, stride n
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
  int inc_group_source_ = -1;
  /// The engine's shared lookups this plan makes: a probe per FROM item
  /// bound through a hash index (null for the others), and g's group lookup
  /// (null when the plan scans every group instead).
  std::vector<LookupSlot*> probe_slots_;
  LookupSlot* group_slot_ = nullptr;
  /// Arguments registered as columns of the grouped source, with their
  /// column; released when the statement goes.
  std::vector<std::pair<const Expr*, int>> inc_accum_args_;
  std::vector<IncAgg> inc_aggs_;         // parallel to aggregates_
  std::vector<int> inc_gate_conjuncts_;  // conjuncts not touching g
};

}  // namespace cep
}  // namespace insight

#endif  // INSIGHT_CEP_STATEMENT_H_
