#include "cep/engine.h"

#include <algorithm>

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
  INSIGHT_ASSIGN_OR_RETURN(auto stmt, Statement::Compile(std::move(def), types_));
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
  for (auto& [name, stmt] : statements_) {
    for (const StreamSource& src : stmt->def().from) {
      auto& vec = routing_[src.event_type];
      if (std::find(vec.begin(), vec.end(), stmt.get()) == vec.end()) {
        vec.push_back(stmt.get());
      }
    }
  }
  for (const auto& [type_name, stmts] : routing_) {
    auto type_it = types_.find(type_name);
    if (type_it != types_.end()) {
      routing_by_ptr_[type_it->second.get()] = stmts;
    }
  }
}

size_t Engine::SendEvent(const EventPtr& event) {
#if TMS_DCHECK_ENABLED
  // Serial-processing contract: every send must come from the one thread
  // that owns this engine. A violation means the DSPS layer routed two
  // executors into the same engine — statement windows would race.
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
  auto ptr_it = routing_by_ptr_.find(&event->type());
  if (ptr_it != routing_by_ptr_.end()) {
    for (Statement* stmt : ptr_it->second) matches += stmt->OnEvent(event);
  } else {
    auto it = routing_.find(event->type().name());
    if (it != routing_.end()) {
      for (Statement* stmt : it->second) matches += stmt->OnEvent(event);
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
constexpr uint32_t kSnapshotVersion = 1;
}  // namespace

Status Engine::Snapshot(std::string* out) const {
  out->clear();
  ByteWriter writer(out);
  writer.PutU32(kSnapshotMagic);
  writer.PutU32(kSnapshotVersion);
  writer.PutU64(events_processed_);
  writer.PutU64(matches_fired_);
  writer.PutU32(static_cast<uint32_t>(statements_.size()));
  std::string blob;
  for (const auto& [name, stmt] : statements_) {
    writer.PutString(name);
    blob.clear();
    ByteWriter section(&blob);
    stmt->SnapshotState(&section);
    writer.PutString(blob);
  }
  return Status::OK();
}

Status Engine::Restore(const std::string& bytes) {
  auto fail = [this](const std::string& msg) {
    for (auto& [name, stmt] : statements_) stmt->ResetState();
    return Status::ParseError("engine snapshot: " + msg);
  };
  // Start from clean state so statements absent from the snapshot (or a
  // mid-stream decode failure) cannot retain stale windows.
  for (auto& [name, stmt] : statements_) stmt->ResetState();
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
  uint32_t count;
  if (!reader.GetU64(&events_processed) || !reader.GetU64(&matches_fired) ||
      !reader.GetU32(&count)) {
    return fail("truncated totals");
  }
  std::string name, blob;
  for (uint32_t i = 0; i < count; ++i) {
    if (!reader.GetString(&name) || !reader.GetString(&blob)) {
      return fail("truncated statement section");
    }
    auto it = statements_.find(name);
    if (it == statements_.end()) {
      // The snapshot was taken under a different rule set; restoring a
      // subset would silently drop state, so treat it as a mismatch.
      return fail("unknown statement '" + name + "'");
    }
    ByteReader section(blob);
    Status status = it->second->RestoreState(&section);
    if (!status.ok()) return fail(status.message());
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
  for (const auto& [name, stmt] : statements_) {
    stats.retained_events += stmt->RetainedEvents();
  }
  return stats;
}

void Engine::ResetStream(const std::string& type_name) {
  for (auto& [name, stmt] : statements_) stmt->ResetSource(type_name);
}

void Engine::ResetStats() {
  events_processed_ = 0;
  matches_fired_ = 0;
  latency_micros_ = RunningStats();
}

}  // namespace cep
}  // namespace insight
