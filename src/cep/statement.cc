#include "cep/statement.h"

#include <algorithm>

#include "common/logging.h"

namespace insight {
namespace cep {

Result<Value> MatchResult::Get(const std::string& column) const {
  for (const auto& [name, value] : columns) {
    if (name == column) return value;
  }
  return Status::NotFound("match has no column '" + column + "'");
}

std::string MatchResult::ToString() const {
  std::string out = statement_name + "{";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns[i].first + "=" + columns[i].second.ToString();
  }
  out += "}";
  return out;
}

void Statement::HashIndex::Insert(const Event* e) {
  key_scratch.clear();
  for (int idx : field_indexes) key_scratch.push_back(e->Get(idx));
  auto it = map.find(key_scratch);
  if (it == map.end()) {
    map.emplace(key_scratch, std::vector<const Event*>{e});
  } else {
    it->second.push_back(e);
  }
}

void Statement::HashIndex::Remove(const Event* e) {
  key_scratch.clear();
  for (int idx : field_indexes) key_scratch.push_back(e->Get(idx));
  auto it = map.find(key_scratch);
  if (it == map.end()) return;
  auto& vec = it->second;
  for (size_t i = 0; i < vec.size(); ++i) {
    if (vec[i] == e) {
      vec.erase(vec.begin() + static_cast<long>(i));
      break;
    }
  }
  // The (possibly now empty) entry stays: the steady-state refresh cycle
  // (remove + insert of the same key) reuses the node instead of churning it.
}

namespace {

/// Flattens an AND tree into conjuncts.
void FlattenConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  const auto* bin = dynamic_cast<const BinaryExpr*>(expr);
  if (bin != nullptr && bin->op() == BinaryOp::kAnd) {
    FlattenConjuncts(bin->left(), out);
    FlattenConjuncts(bin->right(), out);
    return;
  }
  out->push_back(expr);
}

uint32_t SourceMaskOf(const Expr* expr) {
  std::vector<const FieldRefExpr*> refs;
  expr->CollectFieldRefs(&refs);
  uint32_t mask = 0;
  for (const auto* ref : refs) mask |= 1u << ref->source_index();
  return mask;
}

int HighestSource(uint32_t mask) {
  int highest = -1;
  for (int i = 0; i < 32; ++i) {
    if (mask & (1u << i)) highest = i;
  }
  return highest;
}

}  // namespace

Result<std::unique_ptr<Statement>> Statement::Compile(
    StatementDef def, const std::map<std::string, EventTypePtr>& types) {
  if (def.from.empty()) {
    return Status::InvalidArgument("statement requires at least one stream");
  }
  if (def.from.size() > 16) {
    return Status::InvalidArgument("at most 16 streams per statement");
  }
  if (!def.select_all && def.select.empty()) {
    return Status::InvalidArgument("statement requires a SELECT clause");
  }

  auto stmt = std::unique_ptr<Statement>(new Statement());

  // Resolve sources: schemas + windows.
  for (StreamSource& src : def.from) {
    auto type_it = types.find(src.event_type);
    if (type_it == types.end()) {
      return Status::NotFound("unknown event type '" + src.event_type + "'");
    }
    if (src.alias.empty()) src.alias = src.event_type;
    if (stmt->schemas_.AliasIndex(src.alias) >= 0) {
      return Status::AlreadyExists("duplicate stream alias '" + src.alias + "'");
    }
    stmt->schemas_.aliases.push_back(src.alias);
    stmt->schemas_.types.push_back(type_it->second);
    INSIGHT_ASSIGN_OR_RETURN(auto window,
                             Window::Create(src.views, type_it->second));
    stmt->windows_.push_back(std::move(window));
  }
  for (const std::string& trigger : def.trigger_types) {
    if (types.find(trigger) == types.end()) {
      return Status::NotFound("unknown trigger type '" + trigger + "'");
    }
  }

  // Resolve expressions.
  if (def.where != nullptr) {
    INSIGHT_RETURN_NOT_OK(def.where->Resolve(stmt->schemas_));
  }
  for (auto& g : def.group_by) INSIGHT_RETURN_NOT_OK(g->Resolve(stmt->schemas_));
  if (def.having != nullptr) {
    INSIGHT_RETURN_NOT_OK(def.having->Resolve(stmt->schemas_));
  }
  for (auto& item : def.select) {
    INSIGHT_RETURN_NOT_OK(item.expr->Resolve(stmt->schemas_));
    if (item.name.empty()) item.name = item.expr->ToString();
  }
  for (auto& item : def.order_by) {
    INSIGHT_RETURN_NOT_OK(item.expr->Resolve(stmt->schemas_));
  }

  // Type check: WHERE/HAVING must be boolean-ish; every expression must be
  // internally well-typed (no arithmetic or aggregation over strings).
  if (def.where != nullptr) {
    INSIGHT_ASSIGN_OR_RETURN(ValueType where_type, def.where->DeduceType());
    if (where_type == ValueType::kString) {
      return Status::InvalidArgument("WHERE must be boolean, got string");
    }
  }
  if (def.having != nullptr) {
    INSIGHT_ASSIGN_OR_RETURN(ValueType having_type, def.having->DeduceType());
    if (having_type == ValueType::kString) {
      return Status::InvalidArgument("HAVING must be boolean, got string");
    }
  }
  for (const auto& item : def.select) {
    INSIGHT_RETURN_NOT_OK(item.expr->DeduceType().status());
  }
  for (const auto& g : def.group_by) {
    INSIGHT_RETURN_NOT_OK(g->DeduceType().status());
  }
  for (const auto& item : def.order_by) {
    INSIGHT_RETURN_NOT_OK(item.expr->DeduceType().status());
  }

  // Aggregates may appear in HAVING and SELECT (not in WHERE, like SQL).
  // Textually identical nodes (e.g. avg(bd2.x) in both SELECT and HAVING)
  // share an agg_id, so each is computed once per group.
  if (def.where != nullptr) {
    std::vector<AggregateExpr*> where_aggs;
    def.where->CollectAggregates(&where_aggs);
    if (!where_aggs.empty()) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
  }
  std::vector<AggregateExpr*> all_aggs;
  if (def.having != nullptr) def.having->CollectAggregates(&all_aggs);
  for (auto& item : def.select) item.expr->CollectAggregates(&all_aggs);
  for (auto& item : def.order_by) item.expr->CollectAggregates(&all_aggs);
  std::vector<std::string> agg_keys;
  for (AggregateExpr* agg : all_aggs) {
    std::string key = agg->ToString();
    int id = -1;
    for (size_t k = 0; k < agg_keys.size(); ++k) {
      if (agg_keys[k] == key) {
        id = static_cast<int>(k);
        break;
      }
    }
    if (id < 0) {
      id = static_cast<int>(agg_keys.size());
      agg_keys.push_back(std::move(key));
      stmt->aggregates_.push_back(agg);
    }
    agg->set_agg_id(id);
  }

  // Conjunct decomposition.
  if (def.where != nullptr) {
    std::vector<const Expr*> flat;
    FlattenConjuncts(def.where.get(), &flat);
    for (const Expr* e : flat) {
      Conjunct c;
      c.expr = e;
      c.source_mask = SourceMaskOf(e);
      stmt->conjuncts_.push_back(c);
    }
  }

  // Join planning: for each source after the first, gather equi-join
  // conjuncts `this.field = <expr over earlier sources>`.
  stmt->plans_.resize(def.from.size());
  stmt->source_indexes_.resize(def.from.size());
  for (size_t i = 1; i < def.from.size(); ++i) {
    SourcePlan& plan = stmt->plans_[i];
    uint32_t earlier_mask = (1u << i) - 1;
    for (size_t cid = 0; cid < stmt->conjuncts_.size(); ++cid) {
      const Conjunct& c = stmt->conjuncts_[cid];
      const auto* bin = dynamic_cast<const BinaryExpr*>(c.expr);
      if (bin == nullptr || bin->op() != BinaryOp::kEq) continue;
      const auto* lf = dynamic_cast<const FieldRefExpr*>(bin->left());
      const auto* rf = dynamic_cast<const FieldRefExpr*>(bin->right());
      const FieldRefExpr* mine = nullptr;
      const Expr* other = nullptr;
      if (lf != nullptr && lf->source_index() == static_cast<int>(i)) {
        mine = lf;
        other = bin->right();
      } else if (rf != nullptr && rf->source_index() == static_cast<int>(i)) {
        mine = rf;
        other = bin->left();
      }
      if (mine == nullptr) continue;
      uint32_t other_mask = SourceMaskOf(other);
      if ((other_mask & ~earlier_mask) != 0) continue;  // depends on later source
      plan.my_fields.push_back(mine->field_index());
      plan.bound_exprs.push_back(other);
      plan.conjunct_ids.push_back(static_cast<int>(cid));
    }
    if (plan.my_fields.empty()) continue;
    Window* window = stmt->windows_[i].get();
    if (window->grouped()) {
      for (size_t k = 0; k < plan.my_fields.size(); ++k) {
        if (plan.my_fields[k] == window->group_field_index()) {
          plan.use_group_lookup = true;
          plan.group_expr_pos = static_cast<int>(k);
          break;
        }
      }
    }
    if (plan.use_group_lookup) {
      // The lookup enforces exactly the group-field conjunct; the rest of
      // the plan's conjuncts still evaluate in ConjunctsPass.
      stmt->conjuncts_[static_cast<size_t>(
                           plan.conjunct_ids[plan.group_expr_pos])]
          .is_equi_used = true;
    } else {
      // Build a hash index over this source keyed on the equi fields. The
      // probe enforces all of the plan's conjuncts (Equals semantics match
      // the kEq operator), so they are skipped in ConjunctsPass.
      HashIndex index;
      index.field_indexes = plan.my_fields;
      stmt->indexes_.push_back(std::move(index));
      plan.use_hash_index = true;
      plan.hash_index_id = static_cast<int>(stmt->indexes_.size() - 1);
      stmt->source_indexes_[i].push_back(plan.hash_index_id);
      for (int cid : plan.conjunct_ids) {
        stmt->conjuncts_[static_cast<size_t>(cid)].is_equi_used = true;
      }
    }
  }

  stmt->def_ = std::move(def);

  const size_t n = stmt->windows_.size();
  stmt->row_scratch_.assign(n, nullptr);
  stmt->accum_row_scratch_.assign(n, nullptr);
  stmt->source_is_trigger_.assign(n, 1);
  if (!stmt->def_.trigger_types.empty()) {
    for (size_t i = 0; i < n; ++i) {
      stmt->source_is_trigger_[i] =
          stmt->def_.trigger_types.count(stmt->def_.from[i].event_type) > 0
              ? 1
              : 0;
    }
  }
  stmt->incremental_ = stmt->PlanIncremental();
  return stmt;
}

bool Statement::PlanIncremental() {
  if (def_.group_by.size() != 1) return false;
  const auto* gref = dynamic_cast<const FieldRefExpr*>(def_.group_by[0].get());
  if (gref == nullptr) return false;
  const int g = gref->source_index();
  Window* group_window = windows_[static_cast<size_t>(g)].get();
  if (!group_window->grouped() ||
      gref->field_index() != group_window->group_field_index()) {
    return false;
  }
  const uint32_t g_bit = 1u << g;

  // Classify aggregates. stddev stays on the fallback path so its Welford
  // numerics are bit-identical with the full recompute.
  inc_aggs_.clear();
  inc_accum_args_.clear();
  for (AggregateExpr* agg : aggregates_) {
    if (agg->func() == AggFunc::kStddev) return false;
    IncAgg ia;
    ia.func = agg->func();
    if (agg->argument() == nullptr) {
      ia.src = IncAggSrc::kGroupCount;
    } else {
      uint32_t mask = SourceMaskOf(agg->argument());
      if ((mask & g_bit) != 0 && (mask & ~g_bit) == 0) {
        ia.src = IncAggSrc::kAccum;
        std::string key = agg->argument()->ToString();
        int pos = -1;
        for (size_t k = 0; k < inc_accum_args_.size(); ++k) {
          if (inc_accum_args_[k]->ToString() == key) {
            pos = static_cast<int>(k);
            break;
          }
        }
        if (pos < 0) {
          pos = static_cast<int>(inc_accum_args_.size());
          inc_accum_args_.push_back(agg->argument());
        }
        ia.accum_pos = pos;
      } else if ((mask & g_bit) == 0) {
        // Constant across a group's rows: the other sources each bind one
        // event per evaluation (checked below).
        ia.src = IncAggSrc::kRowConst;
        ia.row_expr = agg->argument();
      } else {
        return false;  // mixes the grouped source with others
      }
    }
    inc_aggs_.push_back(ia);
  }

  // Conjuncts: only the conjunct consumed by g's group lookup may reference
  // g; everything else becomes a gate evaluated before groups are visited.
  const SourcePlan& gplan = plans_[static_cast<size_t>(g)];
  const int consumed_cid =
      gplan.use_group_lookup
          ? gplan.conjunct_ids[static_cast<size_t>(gplan.group_expr_pos)]
          : -1;
  inc_gate_conjuncts_.clear();
  for (size_t cid = 0; cid < conjuncts_.size(); ++cid) {
    if ((conjuncts_[cid].source_mask & g_bit) != 0) {
      if (static_cast<int>(cid) != consumed_cid) return false;
    } else {
      inc_gate_conjuncts_.push_back(static_cast<int>(cid));
    }
  }

  // Every other source must bind at most one event, without touching g:
  // an ungrouped std:lastevent (bind its single event) or a std:unique
  // window probed through a hash index covering the unique key.
  for (size_t t = 0; t < windows_.size(); ++t) {
    if (static_cast<int>(t) == g) continue;
    Window* w = windows_[t].get();
    if (w->grouped()) return false;
    if (w->data_kind() == ViewKind::kLastEvent) continue;
    if (w->data_kind() == ViewKind::kUnique && plans_[t].use_hash_index) {
      for (int uf : w->unique_field_indexes()) {
        bool covered = false;
        for (int mf : plans_[t].my_fields) {
          if (mf == uf) {
            covered = true;
            break;
          }
        }
        if (!covered) return false;
      }
      // The probe runs before g binds, so its key may not reference g.
      for (const Expr* e : plans_[t].bound_exprs) {
        if ((SourceMaskOf(e) & g_bit) != 0) return false;
      }
      continue;
    }
    return false;
  }

  inc_group_source_ = g;
  inc_shape_a_ = gplan.use_group_lookup;
  return true;
}

bool Statement::ConsumesType(const std::string& type_name) const {
  for (const StreamSource& src : def_.from) {
    if (src.event_type == type_name) return true;
  }
  return false;
}

size_t Statement::RetainedEvents() const {
  size_t total = 0;
  for (const auto& w : windows_) total += w->TotalSize();
  return total;
}

size_t Statement::OnEvent(const EventPtr& event) {
  const EventType* event_type = &event->type();
  bool consumed = false;
  bool triggered = false;
  for (size_t i = 0; i < schemas_.types.size(); ++i) {
    // Pointer compare first: events built from the engine's registry share
    // the schema instance, so the name compare is only a fallback for
    // foreign EventType copies.
    const EventType* source_type = schemas_.types[i].get();
    if (source_type != event_type && source_type->name() != event_type->name()) {
      continue;
    }
    consumed = true;
    if (source_is_trigger_[i] != 0) triggered = true;
    expired_scratch_.clear();
    windows_[i]->Insert(event, &expired_scratch_);
    for (int index_id : source_indexes_[i]) {
      HashIndex& index = indexes_[static_cast<size_t>(index_id)];
      index.Insert(event.get());
      for (const EventPtr& e : expired_scratch_) index.Remove(e.get());
    }
    if (incremental_ && static_cast<int>(i) == inc_group_source_) {
      AccumInsert(*event);
      for (const EventPtr& e : expired_scratch_) AccumRemove(*e);
    }
  }
  if (!consumed) return 0;
  ++total_events_;
  if (!triggered) return 0;

  // Matches are collected before any listener runs: an INSERT INTO listener
  // may re-enter this statement through the engine.
  std::vector<MatchResult> matches;
  EvaluateJoin(&matches);
  total_matches_ += matches.size();
  for (const MatchResult& m : matches) {
    for (const Listener& l : listeners_) l(m);
  }
  return matches.size();
}

void Statement::SnapshotState(ByteWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(windows_.size()));
  for (size_t i = 0; i < windows_.size(); ++i) {
    const Window& window = *windows_[i];
    writer->PutU64(window.TotalSize());
    // Iteration order is deterministic (map key order for groups/unique,
    // ring order within a bucket), and replaying events in this order
    // through Insert reproduces the identical window contents: every
    // retained event already satisfied the window's eviction predicate
    // relative to its retained neighbours when it was first inserted.
    window.ForEachEvent([&](const EventPtr& e) {
      writer->PutI64(e->timestamp());
      writer->PutU32(static_cast<uint32_t>(e->values().size()));
      for (const Value& v : e->values()) EncodeValue(v, writer);
    });
  }
  writer->PutU64(total_events_);
  writer->PutU64(total_matches_);
}

Status Statement::RestoreState(ByteReader* reader) {
  ResetState();
  auto fail = [this](const std::string& msg) {
    ResetState();
    return Status::ParseError("statement '" + def_.name + "': " + msg);
  };
  uint32_t sources;
  if (!reader->GetU32(&sources)) return fail("truncated source count");
  if (sources != windows_.size()) return fail("source count mismatch");
  for (size_t i = 0; i < windows_.size(); ++i) {
    const EventTypePtr& type = schemas_.types[i];
    uint64_t count;
    if (!reader->GetU64(&count)) return fail("truncated event count");
    for (uint64_t k = 0; k < count; ++k) {
      int64_t timestamp;
      uint32_t nfields;
      if (!reader->GetI64(&timestamp) || !reader->GetU32(&nfields)) {
        return fail("truncated event");
      }
      if (nfields != type->num_fields()) return fail("field count mismatch");
      std::vector<Value> values(nfields);
      for (uint32_t f = 0; f < nfields; ++f) {
        if (!DecodeValue(reader, &values[f])) return fail("bad field value");
      }
      InsertRestored(i, std::make_shared<Event>(type, std::move(values),
                                                timestamp));
    }
  }
  uint64_t events, matches;
  if (!reader->GetU64(&events) || !reader->GetU64(&matches)) {
    return fail("truncated counters");
  }
  total_events_ = events;
  total_matches_ = matches;
  return Status::OK();
}

void Statement::ResetState() {
  for (const auto& w : windows_) w->Clear();
  for (HashIndex& index : indexes_) index.map.clear();
  accums_.clear();
  group_table_.clear();
  total_events_ = 0;
  total_matches_ = 0;
}

void Statement::ResetSource(const std::string& event_type) {
  for (size_t i = 0; i < def_.from.size(); ++i) {
    if (def_.from[i].event_type != event_type) continue;
    windows_[i]->Clear();
    for (int index_id : source_indexes_[i]) {
      indexes_[static_cast<size_t>(index_id)].map.clear();
    }
    if (incremental_ && static_cast<int>(i) == inc_group_source_) accums_.clear();
  }
  // Evaluation scratch may point into the cleared windows.
  group_table_.clear();
}

void Statement::ForEachRetained(
    const std::string& event_type,
    const std::function<void(const EventPtr&)>& fn) const {
  for (size_t i = 0; i < def_.from.size(); ++i) {
    if (def_.from[i].event_type == event_type) windows_[i]->ForEachEvent(fn);
  }
}

void Statement::InsertRestored(size_t source, const EventPtr& event) {
  expired_scratch_.clear();
  windows_[source]->Insert(event, &expired_scratch_);
  for (int index_id : source_indexes_[source]) {
    HashIndex& index = indexes_[static_cast<size_t>(index_id)];
    index.Insert(event.get());
    for (const EventPtr& e : expired_scratch_) index.Remove(e.get());
  }
  if (incremental_ && static_cast<int>(source) == inc_group_source_) {
    AccumInsert(*event);
    for (const EventPtr& e : expired_scratch_) AccumRemove(*e);
  }
}

bool Statement::ConjunctsPass(uint32_t bound_mask, uint32_t newly_bound,
                              const JoinRow& row) {
  EvalContext ctx;
  ctx.row = &row;
  for (const Conjunct& c : conjuncts_) {
    if (c.is_equi_used) continue;  // enforced by a lookup
    // Evaluate a conjunct exactly when its highest source has just bound
    // (constant conjuncts evaluate with the first source).
    int last = HighestSource(c.source_mask);
    uint32_t last_bit = last < 0 ? 1u : (1u << last);
    if ((last_bit & newly_bound) == 0) continue;
    if ((c.source_mask & ~bound_mask) != 0) continue;
    if (!c.expr->Eval(ctx).AsBool()) return false;
  }
  return true;
}

void Statement::JoinRecurse(size_t depth, uint32_t bound_mask) {
  const size_t n = windows_.size();
  if (depth == n) {
    row_arena_.insert(row_arena_.end(), row_scratch_.begin(),
                      row_scratch_.end());
    return;
  }
  const SourcePlan& plan = plans_[depth];
  uint32_t new_mask = bound_mask | (1u << depth);
  JoinRow row(row_scratch_.data(), n);
  EvalContext ctx;
  ctx.row = &row;

  auto try_candidate = [&](const Event* candidate) {
    row_scratch_[depth] = candidate;
    if (ConjunctsPass(new_mask, 1u << depth, row)) {
      JoinRecurse(depth + 1, new_mask);
    }
    row_scratch_[depth] = nullptr;
  };

  Window* window = windows_[depth].get();
  if (plan.use_group_lookup) {
    Value key =
        plan.bound_exprs[static_cast<size_t>(plan.group_expr_pos)]->Eval(ctx);
    const EventRing* group = window->GroupContents(key);
    if (group == nullptr) return;
    for (const EventPtr& e : *group) try_candidate(e.get());
    return;
  }
  if (plan.use_hash_index) {
    HashIndex& index = indexes_[static_cast<size_t>(plan.hash_index_id)];
    probe_key_.clear();
    for (const Expr* e : plan.bound_exprs) probe_key_.push_back(e->Eval(ctx));
    auto it = index.map.find(probe_key_);
    if (it == index.map.end()) return;
    // probe_key_ may be clobbered by deeper recursion levels, but the
    // iterator and its candidate vector stay stable (no inserts mid-eval).
    for (const Event* e : it->second) try_candidate(e);
    return;
  }
  window->ForEachEvent([&](const EventPtr& e) { try_candidate(e.get()); });
}

void Statement::EvaluateJoin(std::vector<MatchResult>* out) {
  pending_.clear();
  if (incremental_) {
    EvaluateIncremental();
  } else {
    row_arena_.clear();
    std::fill(row_scratch_.begin(), row_scratch_.end(), nullptr);
    JoinRecurse(0, 0);
    if (!row_arena_.empty()) EmitGroupsFallback();
  }
  FlushPending(out);
}

void Statement::ComputeFallbackAggs(const std::vector<uint32_t>* row_ids,
                                    size_t nrows) {
  const size_t m = aggregates_.size();
  agg_scratch_.assign(m, Value());
  if (m == 0) return;
  const size_t count = row_ids != nullptr ? row_ids->size() : nrows;
  stats_scratch_.assign(m, RunningStats());
  EvalContext ctx;
  for (size_t j = 0; j < count; ++j) {
    const size_t r = row_ids != nullptr ? (*row_ids)[j] : j;
    JoinRow row = RowAt(r);
    ctx.row = &row;
    for (size_t k = 0; k < m; ++k) {
      const Expr* arg = aggregates_[k]->argument();
      if (arg != nullptr) stats_scratch_[k].Add(arg->Eval(ctx).AsDouble());
    }
  }
  for (size_t k = 0; k < m; ++k) {
    const AggregateExpr* agg = aggregates_[k];
    const RunningStats& stats = stats_scratch_[k];
    if (agg->argument() == nullptr) {
      agg_scratch_[k] = static_cast<int64_t>(count);  // count(*)
      continue;
    }
    switch (agg->func()) {
      case AggFunc::kAvg:
        agg_scratch_[k] = stats.mean();
        break;
      case AggFunc::kSum:
        agg_scratch_[k] = stats.mean() * static_cast<double>(stats.count());
        break;
      case AggFunc::kCount:
        agg_scratch_[k] = static_cast<int64_t>(stats.count());
        break;
      case AggFunc::kMin:
        agg_scratch_[k] = stats.min();
        break;
      case AggFunc::kMax:
        agg_scratch_[k] = stats.max();
        break;
      case AggFunc::kStddev:
        agg_scratch_[k] = stats.stdev();
        break;
    }
  }
}

void Statement::EmitGroupsFallback() {
  const size_t n = windows_.size();
  const size_t nrows = row_arena_.size() / n;
  const bool has_groups = !def_.group_by.empty();
  const bool has_aggs = !aggregates_.empty();

  if (!has_groups && !has_aggs) {
    agg_scratch_.clear();
    for (size_t r = 0; r < nrows; ++r) EmitMatch(RowAt(r));
    return;
  }
  if (!has_groups) {
    ComputeFallbackAggs(nullptr, nrows);
    EmitMatch(RowAt(nrows - 1));
    return;
  }

  // Group rows in a persistent hash table (nodes reused across evaluations;
  // an entry is live iff seq == eval_seq_), then emit in sorted key order.
  ++eval_seq_;
  touched_groups_.clear();
  EvalContext ctx;
  for (size_t r = 0; r < nrows; ++r) {
    JoinRow row = RowAt(r);
    ctx.row = &row;
    group_key_scratch_.clear();
    for (const auto& gexpr : def_.group_by) {
      group_key_scratch_.push_back(gexpr->Eval(ctx));
    }
    auto it = group_table_.find(group_key_scratch_);
    if (it == group_table_.end()) {
      it = group_table_.emplace(group_key_scratch_, GroupState{}).first;
    }
    GroupState& gs = it->second;
    if (gs.seq != eval_seq_) {
      gs.seq = eval_seq_;
      gs.rows.clear();
      touched_groups_.emplace_back(&it->first, &gs);
    }
    gs.rows.push_back(static_cast<uint32_t>(r));
  }
  std::sort(touched_groups_.begin(), touched_groups_.end(),
            [](const auto& a, const auto& b) {
              return ValueVectorLess{}(*a.first, *b.first);
            });
  for (auto& [key, gs] : touched_groups_) {
    ComputeFallbackAggs(&gs->rows, 0);
    EmitMatch(RowAt(gs->rows.back()));
  }
}

void Statement::EvaluateIncremental() {
  const size_t n = windows_.size();
  std::fill(row_scratch_.begin(), row_scratch_.end(), nullptr);
  JoinRow row(row_scratch_.data(), n);
  EvalContext ctx;
  ctx.row = &row;

  // Bind every non-grouped source to its single candidate, in FROM order so
  // probe keys only read already-bound slots.
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) == inc_group_source_) continue;
    Window* w = windows_[i].get();
    if (w->data_kind() == ViewKind::kLastEvent) {
      const EventRing& contents = w->Contents();
      if (contents.empty()) return;
      row_scratch_[i] = contents.back().get();
      continue;
    }
    const SourcePlan& plan = plans_[i];
    HashIndex& index = indexes_[static_cast<size_t>(plan.hash_index_id)];
    probe_key_.clear();
    for (const Expr* e : plan.bound_exprs) probe_key_.push_back(e->Eval(ctx));
    auto it = index.map.find(probe_key_);
    if (it == index.map.end() || it->second.empty()) return;
    row_scratch_[i] = it->second.front();
  }

  for (int cid : inc_gate_conjuncts_) {
    if (!conjuncts_[static_cast<size_t>(cid)].expr->Eval(ctx).AsBool()) return;
  }

  Window* group_window = windows_[static_cast<size_t>(inc_group_source_)].get();
  if (inc_shape_a_) {
    const SourcePlan& plan = plans_[static_cast<size_t>(inc_group_source_)];
    Value key =
        plan.bound_exprs[static_cast<size_t>(plan.group_expr_pos)]->Eval(ctx);
    const EventRing* bucket = group_window->GroupContents(key);
    if (bucket != nullptr) EmitIncrementalGroup(key, *bucket, &ctx);
  } else {
    group_window->ForEachGroupT([&](const Value& key, const EventRing& bucket) {
      EmitIncrementalGroup(key, bucket, &ctx);
    });
  }
}

void Statement::EmitIncrementalGroup(const Value& key, const EventRing& bucket,
                                     EvalContext* ctx) {
  if (bucket.empty()) return;
  const size_t count = bucket.size();
  GroupAccum* acc = nullptr;
  if (!inc_accum_args_.empty()) {
    GroupAccum& slot = accums_[key];
    if (slot.args.size() != inc_accum_args_.size() || slot.count != count) {
      // Defensive resync; steady state keeps count in lockstep with the
      // window, so this only fires on first touch.
      slot.args.resize(inc_accum_args_.size());
      RescanAccum(&slot, bucket);
    }
    acc = &slot;
  }

  agg_scratch_.resize(aggregates_.size());
  for (size_t k = 0; k < inc_aggs_.size(); ++k) {
    const IncAgg& ia = inc_aggs_[k];
    switch (ia.src) {
      case IncAggSrc::kGroupCount:
        agg_scratch_[k] = static_cast<int64_t>(count);
        break;
      case IncAggSrc::kAccum: {
        ArgAccum* a = &acc->args[static_cast<size_t>(ia.accum_pos)];
        if ((ia.func == AggFunc::kMin || ia.func == AggFunc::kMax) &&
            !a->minmax_valid) {
          RescanAccum(acc, bucket);  // also refreshes sums (kills drift)
          a = &acc->args[static_cast<size_t>(ia.accum_pos)];
        }
        switch (ia.func) {
          case AggFunc::kAvg:
            agg_scratch_[k] = a->sum / static_cast<double>(count);
            break;
          case AggFunc::kSum:
            agg_scratch_[k] = a->sum;
            break;
          case AggFunc::kCount:
            agg_scratch_[k] = static_cast<int64_t>(count);
            break;
          case AggFunc::kMin:
            agg_scratch_[k] = a->min_v;
            break;
          case AggFunc::kMax:
            agg_scratch_[k] = a->max_v;
            break;
          case AggFunc::kStddev:
            break;  // unreachable: stddev disables the incremental plan
        }
        break;
      }
      case IncAggSrc::kRowConst: {
        double v = ia.row_expr->Eval(*ctx).AsDouble();
        switch (ia.func) {
          case AggFunc::kAvg:
          case AggFunc::kMin:
          case AggFunc::kMax:
            agg_scratch_[k] = v;
            break;
          case AggFunc::kSum:
            agg_scratch_[k] = v * static_cast<double>(count);
            break;
          case AggFunc::kCount:
            agg_scratch_[k] = static_cast<int64_t>(count);
            break;
          case AggFunc::kStddev:
            break;  // unreachable
        }
        break;
      }
    }
  }

  row_scratch_[static_cast<size_t>(inc_group_source_)] = bucket.back().get();
  EmitMatch(JoinRow(row_scratch_.data(), row_scratch_.size()));
  row_scratch_[static_cast<size_t>(inc_group_source_)] = nullptr;
}

void Statement::RescanAccum(GroupAccum* acc, const EventRing& bucket) {
  for (ArgAccum& a : acc->args) a = ArgAccum{};
  acc->count = bucket.size();
  JoinRow row(accum_row_scratch_.data(), accum_row_scratch_.size());
  EvalContext ctx;
  ctx.row = &row;
  for (const EventPtr& e : bucket) {
    accum_row_scratch_[static_cast<size_t>(inc_group_source_)] = e.get();
    for (size_t k = 0; k < inc_accum_args_.size(); ++k) {
      double v = inc_accum_args_[k]->Eval(ctx).AsDouble();
      ArgAccum& a = acc->args[k];
      a.sum += v;
      if (v < a.min_v) a.min_v = v;
      if (v > a.max_v) a.max_v = v;
    }
  }
  accum_row_scratch_[static_cast<size_t>(inc_group_source_)] = nullptr;
  for (ArgAccum& a : acc->args) a.minmax_valid = true;
}

void Statement::AccumInsert(const Event& e) {
  if (inc_accum_args_.empty()) return;
  Window* group_window = windows_[static_cast<size_t>(inc_group_source_)].get();
  const Value& key = e.Get(group_window->group_field_index());
  GroupAccum& acc = accums_[key];
  if (acc.args.size() != inc_accum_args_.size()) {
    acc.args.resize(inc_accum_args_.size());
  }
  ++acc.count;
  JoinRow row(accum_row_scratch_.data(), accum_row_scratch_.size());
  EvalContext ctx;
  ctx.row = &row;
  accum_row_scratch_[static_cast<size_t>(inc_group_source_)] = &e;
  for (size_t k = 0; k < inc_accum_args_.size(); ++k) {
    double v = inc_accum_args_[k]->Eval(ctx).AsDouble();
    ArgAccum& a = acc.args[k];
    a.sum += v;
    if (a.minmax_valid) {
      if (v < a.min_v) a.min_v = v;
      if (v > a.max_v) a.max_v = v;
    }
  }
  accum_row_scratch_[static_cast<size_t>(inc_group_source_)] = nullptr;
}

void Statement::AccumRemove(const Event& e) {
  if (inc_accum_args_.empty()) return;
  Window* group_window = windows_[static_cast<size_t>(inc_group_source_)].get();
  const Value& key = e.Get(group_window->group_field_index());
  auto it = accums_.find(key);
  if (it == accums_.end()) return;
  GroupAccum& acc = it->second;
  JoinRow row(accum_row_scratch_.data(), accum_row_scratch_.size());
  EvalContext ctx;
  ctx.row = &row;
  accum_row_scratch_[static_cast<size_t>(inc_group_source_)] = &e;
  for (size_t k = 0; k < inc_accum_args_.size(); ++k) {
    double v = inc_accum_args_[k]->Eval(ctx).AsDouble();
    ArgAccum& a = acc.args[k];
    a.sum -= v;
    // An evicted extremum invalidates min/max until the next lazy rescan.
    if (a.minmax_valid && (v <= a.min_v || v >= a.max_v)) {
      a.minmax_valid = false;
    }
  }
  accum_row_scratch_[static_cast<size_t>(inc_group_source_)] = nullptr;
  if (acc.count > 0 && --acc.count == 0) {
    // Empty group: reset to pristine so float residue cannot leak into the
    // group's next life.
    for (ArgAccum& a : acc.args) a = ArgAccum{};
  }
}

void Statement::EmitMatch(const JoinRow& representative) {
  EvalContext ctx;
  ctx.row = &representative;
  ctx.agg_values = &agg_scratch_;
  if (def_.having != nullptr && !def_.having->Eval(ctx).AsBool()) return;

  Pending entry;
  entry.match.statement_name = def_.name;
  if (def_.select_all) {
    for (size_t s = 0; s < schemas_.types.size(); ++s) {
      const Event* e = representative[s];
      const EventType& type = *schemas_.types[s];
      for (size_t f = 0; f < type.num_fields(); ++f) {
        entry.match.columns.emplace_back(
            schemas_.aliases[s] + "." + type.fields()[f].name,
            e->Get(static_cast<int>(f)));
      }
    }
  }
  for (const SelectItem& item : def_.select) {
    entry.match.columns.emplace_back(item.name, item.expr->Eval(ctx));
  }
  entry.sort_keys.reserve(def_.order_by.size());
  for (const OrderByItem& item : def_.order_by) {
    entry.sort_keys.push_back(item.expr->Eval(ctx));
  }
  pending_.push_back(std::move(entry));
}

void Statement::FlushPending(std::vector<MatchResult>* out) {
  if (pending_.empty()) return;
  if (!def_.order_by.empty()) {
    std::stable_sort(pending_.begin(), pending_.end(),
                     [this](const Pending& a, const Pending& b) {
                       ValueLess less;
                       for (size_t k = 0; k < def_.order_by.size(); ++k) {
                         const Value& va = a.sort_keys[k];
                         const Value& vb = b.sort_keys[k];
                         bool desc = def_.order_by[k].descending;
                         if (less(va, vb)) return !desc;
                         if (less(vb, va)) return desc;
                       }
                       return false;
                     });
  }
  size_t limit = pending_.size();
  if (def_.limit > 0 && def_.limit < limit) limit = def_.limit;
  for (size_t i = 0; i < limit; ++i) {
    out->push_back(std::move(pending_[i].match));
  }
  pending_.clear();
}

}  // namespace cep
}  // namespace insight
