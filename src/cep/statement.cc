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
    StatementDef def, const std::map<std::string, EventTypePtr>& types,
    SourceSet* sources) {
  if (def.from.empty()) {
    return Status::InvalidArgument("statement requires at least one stream");
  }
  if (def.from.size() > kMaxStreamsPerStatement) {
    return Status::InvalidArgument("at most " +
                                   std::to_string(kMaxStreamsPerStatement) +
                                   " streams per statement");
  }
  if (!def.select_all && def.select.empty()) {
    return Status::InvalidArgument("statement requires a SELECT clause");
  }

  auto stmt = std::unique_ptr<Statement>(new Statement(sources));

  // Resolve sources: schemas + the engine's shared sources.
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
    INSIGHT_ASSIGN_OR_RETURN(Source * source,
                             sources->Acquire(type_it->second, src.views));
    source->AddUser(stmt.get(), stmt->sources_.size());
    stmt->sources_.push_back(source);
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
    const Window& window = stmt->sources_[i]->window();
    if (window.grouped()) {
      for (size_t k = 0; k < plan.my_fields.size(); ++k) {
        if (plan.my_fields[k] == window.group_field_index()) {
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
      // Probe a hash index over this source keyed on the equi fields (shared
      // with every statement keying it alike). The probe enforces all of the
      // plan's conjuncts (Equals semantics match the kEq operator), so they
      // are skipped in ConjunctsPass.
      plan.use_hash_index = true;
      plan.hash_index_id = stmt->sources_[i]->AddIndex(plan.my_fields);
      for (int cid : plan.conjunct_ids) {
        stmt->conjuncts_[static_cast<size_t>(cid)].is_equi_used = true;
      }
    }
  }

  stmt->def_ = std::move(def);

  stmt->row_scratch_.assign(stmt->sources_.size(), nullptr);
  stmt->incremental_ = stmt->PlanIncremental();
  return stmt;
}

Statement::~Statement() {
  for (const auto& [arg, column] : inc_accum_args_) {
    sources_[static_cast<size_t>(inc_group_source_)]->ReleaseAccumColumn(column,
                                                                         arg);
  }
  source_set_->Release(this);
}

bool Statement::PlanIncremental() {
  if (def_.group_by.size() != 1) return false;
  const auto* gref = dynamic_cast<const FieldRefExpr*>(def_.group_by[0].get());
  if (gref == nullptr) return false;
  const int g = gref->source_index();
  const Window& group_window = sources_[static_cast<size_t>(g)]->window();
  if (!group_window.grouped() ||
      gref->field_index() != group_window.group_field_index()) {
    return false;
  }
  const uint32_t g_bit = 1u << g;

  // Classify aggregates. stddev stays on the fallback path so its Welford
  // numerics are bit-identical with the full recompute.
  inc_aggs_.clear();
  std::vector<const Expr*> accum_args;  // distinct per ToString
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
        for (size_t k = 0; k < accum_args.size(); ++k) {
          if (accum_args[k]->ToString() == key) {
            pos = static_cast<int>(k);
            break;
          }
        }
        if (pos < 0) {
          pos = static_cast<int>(accum_args.size());
          accum_args.push_back(agg->argument());
        }
        ia.accum_pos = pos;  // mapped to the source's column below
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
  for (size_t t = 0; t < sources_.size(); ++t) {
    if (static_cast<int>(t) == g) continue;
    const Window& w = sources_[t]->window();
    if (w.grouped()) return false;
    if (w.data_kind() == ViewKind::kLastEvent) continue;
    if (w.data_kind() == ViewKind::kUnique && plans_[t].use_hash_index) {
      for (int uf : w.unique_field_indexes()) {
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
  probe_slots_.assign(sources_.size(), nullptr);
  for (size_t t = 0; t < sources_.size(); ++t) {
    const SourcePlan& plan = plans_[t];
    if (static_cast<int>(t) == g ||
        sources_[t]->window().data_kind() == ViewKind::kLastEvent) {
      continue;
    }
    probe_slots_[t] = source_set_->Intern(
        KeyOf(sources_[t], plan.hash_index_id, plan.bound_exprs), this);
    // The probe enforces its equi-join conjuncts (the index compares keys
    // as kEq does), so they need no gate.
    for (int cid : plan.conjunct_ids) std::erase(inc_gate_conjuncts_, cid);
  }
  Source* group_source = sources_[static_cast<size_t>(g)];
  if (gplan.use_group_lookup) {
    group_slot_ = source_set_->Intern(
        KeyOf(group_source, -1,
              {gplan.bound_exprs[static_cast<size_t>(gplan.group_expr_pos)]}),
        this);
  }
  std::vector<int> columns;
  for (const Expr* arg : accum_args) {
    columns.push_back(group_source->AddAccumColumn(arg));
    inc_accum_args_.emplace_back(arg, columns.back());
  }
  for (IncAgg& ia : inc_aggs_) {
    if (ia.src == IncAggSrc::kAccum) {
      ia.accum_pos = columns[static_cast<size_t>(ia.accum_pos)];
    }
  }
  return true;
}

LookupKey Statement::KeyOf(const Source* source, int index_id,
                           const std::vector<const Expr*>& exprs) const {
  LookupKey key;
  key.source = source;
  key.index_id = index_id;
  for (const Expr* e : exprs) {
    // Only a std:lastevent source binds the same event in every statement.
    const auto* ref = dynamic_cast<const FieldRefExpr*>(e);
    const Source* bound =
        ref == nullptr ? nullptr
                       : sources_[static_cast<size_t>(ref->source_index())];
    if (bound == nullptr || bound->window().grouped() ||
        bound->window().data_kind() != ViewKind::kLastEvent) {
      key.owner = this;
      key.fields.emplace_back(nullptr, -1);
      continue;
    }
    key.fields.emplace_back(bound, ref->field_index());
  }
  return key;
}

bool Statement::ConsumesType(const std::string& type_name) const {
  for (const StreamSource& src : def_.from) {
    if (src.event_type == type_name) return true;
  }
  return false;
}

bool Statement::TriggeredBy(const std::string& type_name) const {
  return def_.trigger_types.empty() || def_.trigger_types.count(type_name) > 0;
}

size_t Statement::RetainedEvents() const {
  size_t total = 0;
  for (const Source* source : sources_) total += source->window().TotalSize();
  return total;
}

size_t Statement::OnEvent(bool trigger) {
  ++total_events_;
  if (!trigger) return 0;

  // Matches are collected before any listener runs: an INSERT INTO listener
  // may re-enter this statement through the engine.
  std::vector<MatchResult> matches;
  EvaluateJoin(&matches);
  total_matches_ += matches.size();
  if (!listeners_.empty()) {
    for (MatchResult& m : matches) {
      for (size_t i = 0; i + 1 < listeners_.size(); ++i) {
        listeners_[i](MatchResult(m));
      }
      listeners_.back()(std::move(m));
    }
  }
  return matches.size();
}

void Statement::ForEachRetained(
    const std::string& event_type,
    const std::function<void(const EventPtr&)>& fn) const {
  for (size_t i = 0; i < def_.from.size(); ++i) {
    if (def_.from[i].event_type == event_type) {
      sources_[i]->window().ForEachEvent(fn);
    }
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
  const size_t n = sources_.size();
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

  const Source& source = *sources_[depth];
  if (plan.use_group_lookup) {
    Value key =
        plan.bound_exprs[static_cast<size_t>(plan.group_expr_pos)]->Eval(ctx);
    const EventRing* group = source.window().GroupContents(key);
    if (group == nullptr) return;
    for (const EventPtr& e : *group) try_candidate(e.get());
    return;
  }
  if (plan.use_hash_index) {
    const HashIndex& index = source.index(plan.hash_index_id);
    probe_key_.clear();
    for (const Expr* e : plan.bound_exprs) probe_key_.push_back(e->Eval(ctx));
    auto it = index.map.find(probe_key_);
    if (it == index.map.end()) return;
    // probe_key_ may be clobbered by deeper recursion levels, but the
    // iterator and its candidate vector stay stable (no inserts mid-eval).
    for (const Event* e : it->second) try_candidate(e);
    return;
  }
  source.window().ForEachEvent(
      [&](const EventPtr& e) { try_candidate(e.get()); });
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
  const size_t n = sources_.size();
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
  const size_t n = sources_.size();
  std::fill(row_scratch_.begin(), row_scratch_.end(), nullptr);
  JoinRow row(row_scratch_.data(), n);
  EvalContext ctx;
  ctx.row = &row;

  // Bind every non-grouped source to its single candidate, in FROM order so
  // probe keys only read already-bound slots. A probe is read from its slot
  // when a statement already made it in this epoch.
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) == inc_group_source_) continue;
    LookupSlot* slot = probe_slots_[i];
    if (slot == nullptr) {  // std:lastevent
      const EventRing& contents = sources_[i]->window().Contents();
      if (contents.empty()) return;
      row_scratch_[i] = contents.back().get();
      continue;
    }
    if (!source_set_->Current(slot)) {
      const SourcePlan& plan = plans_[i];
      const HashIndex& index = sources_[i]->index(plan.hash_index_id);
      probe_key_.clear();
      for (const Expr* e : plan.bound_exprs) probe_key_.push_back(e->Eval(ctx));
      auto it = index.map.find(probe_key_);
      slot->candidates =
          it == index.map.end() || it->second.empty() ? nullptr : &it->second;
    }
    if (slot->candidates == nullptr) return;
    row_scratch_[i] = slot->candidates->front();
  }

  for (int cid : inc_gate_conjuncts_) {
    if (!conjuncts_[static_cast<size_t>(cid)].expr->Eval(ctx).AsBool()) return;
  }

  Source* group_source = sources_[static_cast<size_t>(inc_group_source_)];
  const Window& group_window = group_source->window();
  if (group_slot_ != nullptr) {
    LookupSlot& slot = *group_slot_;
    if (!source_set_->Current(&slot)) {
      const SourcePlan& plan = plans_[static_cast<size_t>(inc_group_source_)];
      slot.group_key =
          plan.bound_exprs[static_cast<size_t>(plan.group_expr_pos)]->Eval(ctx);
      slot.bucket = group_window.GroupContents(slot.group_key);
      if (slot.bucket != nullptr && slot.bucket->empty()) slot.bucket = nullptr;
      slot.accum =
          slot.bucket != nullptr && group_source->num_accum_columns() > 0
              ? group_source->Accum(slot.group_key, *slot.bucket)
              : nullptr;
    }
    if (slot.bucket != nullptr) {
      EmitIncrementalGroup(*slot.bucket, slot.accum, &ctx);
    }
  } else {
    group_window.ForEachGroupT([&](const Value& key, const EventRing& bucket) {
      if (bucket.empty()) return;
      GroupAccum* acc =
          inc_accum_args_.empty() ? nullptr : group_source->Accum(key, bucket);
      EmitIncrementalGroup(bucket, acc, &ctx);
    });
  }
}

void Statement::EmitIncrementalGroup(const EventRing& bucket, GroupAccum* acc,
                                     EvalContext* ctx) {
  const size_t count = bucket.size();
  Source* group_source = sources_[static_cast<size_t>(inc_group_source_)];
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
          // Also refreshes the sums, for every statement on this source.
          group_source->RescanAccum(acc, bucket);
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
