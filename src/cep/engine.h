#ifndef INSIGHT_CEP_ENGINE_H_
#define INSIGHT_CEP_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cep/epl_parser.h"
#include "cep/statement.h"
#include "common/clock.h"
#include "common/stats.h"

namespace insight {
namespace cep {

/// A CEP engine in the style of Esper: a registry of event types plus a set
/// of standing statements (rules). Incoming events are processed serially —
/// "new arriving data are processed serially and the Esper engine responds in
/// real time" (Section 2.1.2) — so an Engine is single-threaded by design and
/// the DSPS layer runs one engine per executor to scale out.
class Engine {
 public:
  explicit Engine(const Clock* clock = SystemClock::Get()) : clock_(clock) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an event schema. AlreadyExists if the name is taken.
  Status RegisterEventType(const std::string& name,
                           std::vector<EventType::Field> fields);
  Result<EventTypePtr> GetEventType(const std::string& name) const;

  /// Compiles and installs a statement from a definition. The returned
  /// pointer stays valid until RemoveStatement / engine destruction.
  Result<Statement*> AddStatement(StatementDef def);

  /// Compiles and installs a statement from EPL text. `name` overrides any
  /// generated statement name.
  Result<Statement*> AddStatement(const std::string& epl,
                                  const std::string& name = "");

  Status RemoveStatement(const std::string& name);
  Result<Statement*> GetStatement(const std::string& name) const;

  /// Processes one event through every statement that consumes its type.
  /// Returns the number of matches fired across statements.
  size_t SendEvent(const EventPtr& event);

  /// Builder bound to a registered type; CHECK-fails on unknown type (use
  /// GetEventType for fallible lookup).
  EventBuilder NewEvent(const std::string& type_name) const;

  size_t num_statements() const { return statements_.size(); }
  std::vector<std::string> StatementNames() const;

  /// Per-engine processing metrics (used to calibrate the latency model).
  struct EngineStats {
    size_t events_processed = 0;
    size_t matches_fired = 0;
    /// Wall time spent inside SendEvent.
    RunningStats latency_micros;
    /// Sum of events retained across all statement windows right now.
    size_t retained_events = 0;
  };
  EngineStats GetStats() const;
  void ResetStats();

  /// Starts `type_name` afresh: every statement drops what its sources of
  /// that type retain (Statement::ResetSource), while windows over other
  /// types and the compiled statements stay. A long-lived topology calls
  /// this at each run boundary for the bus stream, keeping the threshold
  /// windows.
  void ResetStream(const std::string& type_name);

  // --- Stateful recovery (DESIGN.md "State & recovery") ---

  /// Serializes every statement's operator state (view buffers, incremental
  /// accumulator inputs, last-event/unique state, counters) plus the engine
  /// totals into a versioned byte format. The rule set and type registry are
  /// NOT serialized: Restore targets an engine prepared with the same
  /// statements, which is what the DSPS layer guarantees by reinstalling a
  /// task's rules before restoring its checkpoint.
  Status Snapshot(std::string* out) const;

  /// Restores a snapshot taken by Snapshot() on an engine with the same
  /// statements installed. On failure (truncated or corrupt bytes, version
  /// or rule-set mismatch) every statement is reset to clean state and an
  /// error is returned — a bad snapshot degrades to a clean restart, it
  /// never crashes and never leaves partial state.
  Status Restore(const std::string& bytes);

  /// Per-engine event freelist. Adapters on the ingest hot path should build
  /// events with `event_pool().Create(...)` (reusing `TakeBuffer()` storage)
  /// so steady-state ingestion does not touch the heap.
  EventPool& event_pool() { return event_pool_; }

  /// Timestamp of the outermost event whose processing is firing the
  /// currently-running listener — valid only inside a listener callback.
  /// SendEvent stamps it with the event's timestamp. Nested sends (INSERT
  /// INTO feedback) keep the outer stamp, so matches fired by fed-back events
  /// still report the external event that started the cascade.
  MicrosT current_trigger_timestamp() const { return current_trigger_ts_; }

 private:
  static constexpr int kMaxInsertDepth = 16;

  const Clock* clock_;
  /// Engines are single-threaded by design (see class comment); debug
  /// builds pin the engine to the first thread that sends an event and
  /// DCHECK every later send against it. Default-constructed = unbound.
  std::thread::id owner_thread_;
  int send_depth_ = 0;
  std::map<std::string, EventTypePtr> types_;
  std::map<std::string, std::unique_ptr<Statement>> statements_;
  /// type name -> statements consuming it (rebuilt on add/remove).
  std::map<std::string, std::vector<Statement*>> routing_;
  /// Registered-type instance -> statements; the hot lookup. Events carrying
  /// a foreign EventType instance fall back to the name map.
  std::unordered_map<const EventType*, std::vector<Statement*>> routing_by_ptr_;
  EventPool event_pool_;
  size_t next_statement_id_ = 0;
  size_t events_processed_ = 0;
  size_t matches_fired_ = 0;
  RunningStats latency_micros_;
  /// See current_trigger_timestamp(). Written only when send_depth_ == 1 so
  /// nested (feedback) sends never overwrite the external trigger.
  MicrosT current_trigger_ts_ = 0;

  void RebuildRouting();
};

}  // namespace cep
}  // namespace insight

#endif  // INSIGHT_CEP_ENGINE_H_
