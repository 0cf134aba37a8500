#include "cep/engine.h"

#include <set>

#include "common/check.h"
#include "common/logging.h"

namespace insight {
namespace cep {

Status Engine::RegisterEventType(const std::string& name,
                                 std::vector<EventType::Field> fields) {
  if (types_.count(name) > 0) {
    return Status::AlreadyExists("event type '" + name + "' already registered");
  }
  types_[name] = std::make_shared<EventType>(name, std::move(fields));
  return Status::OK();
}

Result<EventTypePtr> Engine::GetEventType(const std::string& name) const {
  auto it = types_.find(name);
  if (it == types_.end()) {
    return Status::NotFound("unknown event type '" + name + "'");
  }
  return it->second;
}

Result<Statement*> Engine::AddStatement(StatementDef def) {
  if (def.name.empty()) {
    def.name = "stmt-" + std::to_string(next_statement_id_++);
  }
  if (statements_.count(def.name) > 0) {
    return Status::AlreadyExists("statement '" + def.name + "' already exists");
  }
  EventTypePtr insert_type;
  if (!def.insert_into.empty()) {
    INSIGHT_ASSIGN_OR_RETURN(insert_type, GetEventType(def.insert_into));
    if (def.select_all) {
      return Status::InvalidArgument(
          "INSERT INTO requires named SELECT columns matching the target type");
    }
  }
  INSIGHT_ASSIGN_OR_RETURN(
      auto stmt, Statement::Compile(std::move(def), types_, &sources_));
  Statement* raw = stmt.get();
  if (insert_type != nullptr) {
    // Matches become events of the target type, fed back into this engine
    // ("the triggered events can be pushed further into the Esper engine
    // feeding other rules"). Column lookup is by name; missing columns keep
    // their default value.
    raw->AddListener([this, insert_type](const MatchResult& match) {
      EventBuilder builder(insert_type);
      for (const EventType::Field& field : insert_type->fields()) {
        auto value = match.Get(field.name);
        if (value.ok()) builder.Set(field.name, *value);
      }
      SendEvent(builder.Build());
    });
  }
  statements_[raw->name()] = std::move(stmt);
  RebuildRouting();
  return raw;
}

Result<Statement*> Engine::AddStatement(const std::string& epl,
                                        const std::string& name) {
  INSIGHT_ASSIGN_OR_RETURN(StatementDef def, ParseEpl(epl));
  if (!name.empty()) def.name = name;
  return AddStatement(std::move(def));
}

Status Engine::RemoveStatement(const std::string& name) {
  auto it = statements_.find(name);
  if (it == statements_.end()) {
    return Status::NotFound("no statement '" + name + "'");
  }
  statements_.erase(it);
  RebuildRouting();
  return Status::OK();
}

Result<Statement*> Engine::GetStatement(const std::string& name) const {
  auto it = statements_.find(name);
  if (it == statements_.end()) {
    return Status::NotFound("no statement '" + name + "'");
  }
  return it->second.get();
}

void Engine::RebuildRouting() {
  routing_.clear();
  routing_by_ptr_.clear();
  for (const auto& source : sources_.sources()) {
    routing_[source->type()->name()].sources.push_back(source.get());
  }
  for (auto& [name, stmt] : statements_) {
    for (const StreamSource& src : stmt->def().from) {
      auto& consumers = routing_[src.event_type].statements;
      if (consumers.empty() || consumers.back().first != stmt.get()) {
        consumers.emplace_back(stmt.get(), stmt->TriggeredBy(src.event_type));
      }
    }
  }
  for (const auto& [type_name, route] : routing_) {
    auto type_it = types_.find(type_name);
    if (type_it != types_.end()) {
      routing_by_ptr_[type_it->second.get()] = route;
    }
  }
}

size_t Engine::SendEvent(const EventPtr& event) {
#if TMS_DCHECK_ENABLED
  // Serial-processing contract: every send must come from the one thread
  // that owns this engine. A violation means the DSPS layer routed two
  // executors into the same engine — its shared sources would race.
  if (owner_thread_ == std::thread::id()) {
    owner_thread_ = std::this_thread::get_id();
  }
  TMS_DCHECK(owner_thread_ == std::this_thread::get_id())
      << "engine is single-threaded but SendEvent came from a second thread";
#endif
  // Guard against INSERT INTO cycles (a rule feeding a stream it consumes).
  if (send_depth_ >= kMaxInsertDepth) {
    INSIGHT_LOG(Warning) << "insert-into recursion capped at depth "
                         << kMaxInsertDepth << " for type "
                         << event->type().name();
    return 0;
  }
  ++send_depth_;
  // Only the outermost send stamps the trigger: matches fired by INSERT INTO
  // feedback report the external event that started the cascade, which is
  // what detection consumers timestamp against.
  if (send_depth_ == 1) current_trigger_ts_ = event->timestamp();
  MicrosT start = clock_->NowMicros();
  size_t matches = 0;
  // Pointer-keyed routing for events built from this engine's registry; the
  // string map only serves events carrying a foreign EventType instance.
  const Route* route = nullptr;
  auto ptr_it = routing_by_ptr_.find(&event->type());
  if (ptr_it != routing_by_ptr_.end()) {
    route = &ptr_it->second;
  } else {
    auto it = routing_.find(event->type().name());
    if (it != routing_.end()) route = &it->second;
  }
  if (route != nullptr) {
    // Phase 1 settles every source, expiries included, before any listener
    // runs, so an INSERT INTO cascade from phase 2 only ever inserts into
    // sources that are already consistent.
    for (Source* source : route->sources) source->Insert(event);
    for (const auto& [stmt, trigger] : route->statements) {
      matches += stmt->OnEvent(trigger);
    }
  }
  MicrosT elapsed = clock_->NowMicros() - start;
  latency_micros_.Add(static_cast<double>(elapsed));
  ++events_processed_;
  matches_fired_ += matches;
  --send_depth_;
  return matches;
}

EventBuilder Engine::NewEvent(const std::string& type_name) const {
  auto it = types_.find(type_name);
  INSIGHT_CHECK(it != types_.end()) << "unknown event type " << type_name;
  return EventBuilder(it->second);
}

std::vector<std::string> Engine::StatementNames() const {
  std::vector<std::string> names;
  names.reserve(statements_.size());
  for (const auto& [name, stmt] : statements_) names.push_back(name);
  return names;
}

namespace {
// "SNP1" little-endian: identifies an engine snapshot container.
constexpr uint32_t kSnapshotMagic = 0x31504e53;
// Version 2 serializes each shared source once; version 1 held one section
// per statement and is rejected.
constexpr uint32_t kSnapshotVersion = 2;
}  // namespace

Status Engine::Snapshot(std::string* out) const {
  out->clear();
  ByteWriter writer(out);
  writer.PutU32(kSnapshotMagic);
  writer.PutU32(kSnapshotVersion);
  writer.PutU64(events_processed_);
  writer.PutU64(matches_fired_);
  writer.PutU32(static_cast<uint32_t>(sources_.sources().size()));
  for (const auto& source : sources_.sources()) {
    writer.PutString(source->key());
    writer.PutU32(static_cast<uint32_t>(source->users().size()));
    for (const Source::User& user : source->users()) {
      writer.PutString(user.statement->name());
      writer.PutU32(static_cast<uint32_t>(user.position));
    }
    const Window& window = source->window();
    writer.PutU64(window.TotalSize());
    // Iteration order is deterministic (map key order for groups/unique,
    // ring order within a bucket), and replaying events in this order
    // through Insert reproduces the identical window contents: every
    // retained event already satisfied the window's eviction predicate
    // relative to its retained neighbours when it was first inserted.
    window.ForEachEvent([&](const EventPtr& e) {
      writer.PutI64(e->timestamp());
      writer.PutU32(static_cast<uint32_t>(e->values().size()));
      for (const Value& v : e->values()) EncodeValue(v, &writer);
    });
  }
  writer.PutU32(static_cast<uint32_t>(statements_.size()));
  for (const auto& [name, stmt] : statements_) {
    writer.PutString(name);
    writer.PutU64(stmt->total_events());
    writer.PutU64(stmt->total_matches());
  }
  return Status::OK();
}

void Engine::ResetState() {
  for (const auto& source : sources_.sources()) source->Clear();
  for (auto& [name, stmt] : statements_) {
    stmt->ResetScratch();
    stmt->SetCounters(0, 0);
  }
}

Status Engine::Restore(const std::string& bytes) {
  auto fail = [this](const std::string& msg) {
    ResetState();
    return Status::ParseError("engine snapshot: " + msg);
  };
  // Start from clean state so sources absent from the snapshot (or a
  // mid-stream decode failure) cannot retain stale windows.
  ResetState();
  ByteReader reader(bytes);
  uint32_t magic, version;
  if (!reader.GetU32(&magic) || !reader.GetU32(&version)) {
    return fail("truncated header");
  }
  if (magic != kSnapshotMagic) return fail("bad magic");
  if (version != kSnapshotVersion) {
    return fail("unsupported version " + std::to_string(version));
  }
  uint64_t events_processed, matches_fired;
  uint32_t num_sources;
  if (!reader.GetU64(&events_processed) || !reader.GetU64(&matches_fired) ||
      !reader.GetU32(&num_sources)) {
    return fail("truncated totals");
  }
  std::set<const Source*> restored;
  std::string key, name;
  for (uint32_t i = 0; i < num_sources; ++i) {
    uint32_t num_users = 0;
    if (!reader.GetString(&key) || !reader.GetU32(&num_users)) {
      return fail("truncated source header");
    }
    // Every (statement, position) that held this source must hold one and
    // the same source here, shared by exactly as many users: a snapshot
    // taken under a different rule set or sharing is rejected whole.
    Source* target = nullptr;
    for (uint32_t u = 0; u < num_users; ++u) {
      uint32_t position = 0;
      if (!reader.GetString(&name) || !reader.GetU32(&position)) {
        return fail("truncated source user");
      }
      auto it = statements_.find(name);
      if (it == statements_.end()) {
        return fail("unknown statement '" + name + "'");
      }
      const std::vector<Source*>& held = it->second->sources();
      if (position >= held.size() || (target != nullptr && held[position] != target)) {
        return fail("source '" + key + "' is shared differently");
      }
      target = held[position];
    }
    if (target == nullptr || target->key() != key ||
        target->users().size() != num_users || !restored.insert(target).second) {
      return fail("source '" + key + "' is shared differently");
    }
    const EventTypePtr& type = target->type();
    uint64_t count = 0;
    if (!reader.GetU64(&count)) return fail("truncated event count");
    for (uint64_t k = 0; k < count; ++k) {
      int64_t timestamp = 0;
      uint32_t nfields = 0;
      if (!reader.GetI64(&timestamp) || !reader.GetU32(&nfields)) {
        return fail("truncated event");
      }
      if (nfields != type->num_fields()) return fail("field count mismatch");
      std::vector<Value> values(nfields);
      for (uint32_t f = 0; f < nfields; ++f) {
        if (!DecodeValue(&reader, &values[f])) return fail("bad field value");
      }
      target->Insert(std::make_shared<Event>(type, std::move(values), timestamp));
    }
  }
  uint32_t num_statements = 0;
  if (!reader.GetU32(&num_statements)) return fail("truncated statement count");
  for (uint32_t i = 0; i < num_statements; ++i) {
    uint64_t events = 0, matches = 0;
    if (!reader.GetString(&name) || !reader.GetU64(&events) ||
        !reader.GetU64(&matches)) {
      return fail("truncated statement counters");
    }
    auto it = statements_.find(name);
    if (it == statements_.end()) {
      // The snapshot was taken under a different rule set; restoring a
      // subset would silently drop state, so treat it as a mismatch.
      return fail("unknown statement '" + name + "'");
    }
    it->second->SetCounters(events, matches);
  }
  events_processed_ = events_processed;
  matches_fired_ = matches_fired;
  return Status::OK();
}

Engine::EngineStats Engine::GetStats() const {
  EngineStats stats;
  stats.events_processed = events_processed_;
  stats.matches_fired = matches_fired_;
  stats.latency_micros = latency_micros_;
  for (const auto& source : sources_.sources()) {
    stats.retained_events += source->window().TotalSize();
  }
  stats.sources = sources_.sources().size();
  stats.lookups = sources_.lookups();
  stats.lookups_shared = sources_.lookups_shared();
  return stats;
}

void Engine::ResetStream(const std::string& type_name) {
  for (const auto& source : sources_.sources()) {
    if (source->type()->name() == type_name) source->Clear();
  }
  // Evaluation scratch may point into the cleared windows.
  for (auto& [name, stmt] : statements_) stmt->ResetScratch();
}

void Engine::ResetStats() {
  events_processed_ = 0;
  matches_fired_ = 0;
  latency_micros_ = RunningStats();
  sources_.ResetCounters();
}

}  // namespace cep
}  // namespace insight
