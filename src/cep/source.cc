#include "cep/source.h"

#include <algorithm>

namespace insight {
namespace cep {

void HashIndex::Insert(const Event* e) {
  key_scratch.clear();
  for (int idx : field_indexes) key_scratch.push_back(e->Get(idx));
  auto it = map.find(key_scratch);
  if (it == map.end()) {
    map.emplace(key_scratch, std::vector<const Event*>{e});
  } else {
    it->second.push_back(e);
  }
}

void HashIndex::Remove(const Event* e) {
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

void Source::Insert(const EventPtr& event) {
  ++*epoch_;
  received_ = true;
  expired_scratch_.clear();
  window_->Insert(event, &expired_scratch_);
  for (HashIndex& index : indexes_) {
    index.Insert(event.get());
    for (const EventPtr& e : expired_scratch_) index.Remove(e.get());
  }
  if (!columns_.empty()) {
    AccumInsert(*event);
    for (const EventPtr& e : expired_scratch_) AccumRemove(*e);
  }
  expired_scratch_.clear();
}

void Source::Clear() {
  ++*epoch_;
  window_->Clear();
  for (HashIndex& index : indexes_) index.map.clear();
  accums_.clear();
}

int Source::AddIndex(const std::vector<int>& fields) {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].field_indexes == fields) return static_cast<int>(i);
  }
  // Only sources that have received nothing are shared (SourceSet::
  // Acquire), so a new index starts in step with the empty window.
  HashIndex index;
  index.field_indexes = fields;
  indexes_.push_back(std::move(index));
  return static_cast<int>(indexes_.size() - 1);
}

int Source::AddAccumColumn(const Expr* arg) {
  std::string key = arg->CanonicalString();
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].key == key) {
      columns_[i].args.push_back(arg);
      return static_cast<int>(i);
    }
  }
  AccumColumn column;
  column.key = std::move(key);
  if (const auto* ref = dynamic_cast<const FieldRefExpr*>(arg)) {
    column.field_index = ref->field_index();
  }
  column.args.push_back(arg);
  columns_.push_back(std::move(column));
  return static_cast<int>(columns_.size() - 1);
}

void Source::ReleaseAccumColumn(int column, const Expr* arg) {
  // The column stays (positions are shared), but no longer evaluates
  // through an expression its statement is about to free.
  std::vector<const Expr*>& args = columns_[static_cast<size_t>(column)].args;
  auto it = std::find(args.begin(), args.end(), arg);
  if (it != args.end()) args.erase(it);
}

void Source::RemoveUser(const Statement* statement) {
  users_.erase(std::remove_if(users_.begin(), users_.end(),
                              [statement](const User& user) {
                                return user.statement == statement;
                              }),
               users_.end());
}

double Source::ColumnValue(const AccumColumn& column, const Event& e) {
  if (column.field_index >= 0) return e.Get(column.field_index).AsDouble();
  if (column.args.empty()) return 0.0;  // no statement reads it any more
  JoinRow row(accum_row_.data(), accum_row_.size());
  EvalContext ctx;
  ctx.row = &row;
  accum_row_.fill(&e);
  return column.args.front()->Eval(ctx).AsDouble();
}

GroupAccum* Source::Accum(const Value& key, const EventRing& bucket) {
  GroupAccum& slot = accums_[key];
  if (slot.args.size() != columns_.size() || slot.count != bucket.size()) {
    // Defensive resync; steady state keeps count in lockstep with the
    // window, so this only fires on first touch.
    slot.args.resize(columns_.size());
    RescanAccum(&slot, bucket);
  }
  return &slot;
}

void Source::RescanAccum(GroupAccum* acc, const EventRing& bucket) {
  for (ArgAccum& a : acc->args) a = ArgAccum{};
  acc->count = bucket.size();
  for (const EventPtr& e : bucket) {
    for (size_t k = 0; k < columns_.size(); ++k) {
      double v = ColumnValue(columns_[k], *e);
      ArgAccum& a = acc->args[k];
      a.sum += v;
      if (v < a.min_v) a.min_v = v;
      if (v > a.max_v) a.max_v = v;
    }
  }
  for (ArgAccum& a : acc->args) a.minmax_valid = true;
}

void Source::AccumInsert(const Event& e) {
  const Value& key = e.Get(window_->group_field_index());
  GroupAccum& acc = accums_[key];
  if (acc.args.size() != columns_.size()) acc.args.resize(columns_.size());
  ++acc.count;
  for (size_t k = 0; k < columns_.size(); ++k) {
    double v = ColumnValue(columns_[k], e);
    ArgAccum& a = acc.args[k];
    a.sum += v;
    if (a.minmax_valid) {
      if (v < a.min_v) a.min_v = v;
      if (v > a.max_v) a.max_v = v;
    }
  }
}

void Source::AccumRemove(const Event& e) {
  const Value& key = e.Get(window_->group_field_index());
  auto it = accums_.find(key);
  if (it == accums_.end()) return;
  GroupAccum& acc = it->second;
  for (size_t k = 0; k < columns_.size(); ++k) {
    double v = ColumnValue(columns_[k], e);
    ArgAccum& a = acc.args[k];
    a.sum -= v;
    // An evicted extremum invalidates min/max until the next lazy rescan.
    if (a.minmax_valid && (v <= a.min_v || v >= a.max_v)) {
      a.minmax_valid = false;
    }
  }
  if (acc.count > 0 && --acc.count == 0) {
    // Empty group: reset to pristine so float residue cannot leak into the
    // group's next life.
    for (ArgAccum& a : acc.args) a = ArgAccum{};
  }
}

Result<Source*> SourceSet::Acquire(const EventTypePtr& type,
                                   const std::vector<ViewSpec>& chain) {
  std::string key = type->name();
  for (const ViewSpec& view : chain) key += "." + view.ToString();
  for (auto it = sources_.rbegin(); it != sources_.rend(); ++it) {
    if ((*it)->key() == key) {
      if (!(*it)->received()) return it->get();
      break;  // the newest has seen events: a late statement starts afresh
    }
  }
  INSIGHT_ASSIGN_OR_RETURN(auto window, Window::Create(chain, type));
  sources_.push_back(
      std::make_unique<Source>(std::move(key), type, std::move(window),
                               &epoch_));
  return sources_.back().get();
}

void SourceSet::Release(const Statement* statement) {
  ++epoch_;
  for (const auto& slot : slots_) std::erase(slot->users, statement);
  slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                              [](const std::unique_ptr<LookupSlot>& slot) {
                                return slot->users.empty();
                              }),
               slots_.end());
  for (const auto& source : sources_) source->RemoveUser(statement);
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                [](const std::unique_ptr<Source>& source) {
                                  return source->users().empty();
                                }),
                 sources_.end());
}

LookupSlot* SourceSet::Intern(LookupKey key, const Statement* user) {
  ++epoch_;
  if (key.owner == nullptr) {
    for (const auto& slot : slots_) {
      if (slot->key == key) {
        slot->users.push_back(user);
        return slot.get();
      }
    }
  }
  auto slot = std::make_unique<LookupSlot>();
  slot->key = std::move(key);
  slot->users.push_back(user);
  slots_.push_back(std::move(slot));
  return slots_.back().get();
}

}  // namespace cep
}  // namespace insight
