#ifndef INSIGHT_DSPS_TOPOLOGY_H_
#define INSIGHT_DSPS_TOPOLOGY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dsps/tuple.h"

namespace insight {
namespace dsps {

/// How a bolt subscribes to an upstream component's stream (Storm
/// groupings).
enum class Grouping {
  kShuffle,  // round-robin across the subscriber's tasks
  kFields,   // hash of selected fields -> task
  kAll,      // replicate to every task
  kGlobal,   // always task 0
  kDirect,   // emitter chooses the target task via EmitDirect
};

const char* GroupingToString(Grouping grouping);

/// Execution context handed to component instances.
struct TaskContext {
  std::string component;
  int task_index = 0;
  int num_tasks = 1;
};

/// Sink for tuples produced by a component instance. EmitDirect targets one
/// subscriber task (requires the subscription to use Grouping::kDirect).
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void Emit(std::vector<Value> values) = 0;
  virtual void EmitDirect(int task_index, std::vector<Value> values) = 0;

  /// Emit that documents single-consumer intent: the runtime may hand the
  /// value buffer straight to the one downstream task without sharing.
  /// Payloads are refcount-shared either way, so the default forwards.
  virtual void EmitMove(std::vector<Value> values) { Emit(std::move(values)); }

  /// Spout-only: emit a root tuple tracked by the reliability subsystem
  /// under `message_id` (Storm's emit-with-message-id). When the topology
  /// runs with acking enabled, the runtime tracks the tuple tree and calls
  /// Spout::Ack(message_id) once every descendant is processed, or replays
  /// the tuple and eventually Spout::Fail(message_id) on timeout. Message
  /// ids must be unique among in-flight tuples. Without acking (or from a
  /// bolt) this behaves exactly like Emit.
  virtual void EmitRooted(uint64_t message_id, std::vector<Value> values) {
    (void)message_id;
    Emit(std::move(values));
  }

  /// Emit with an explicit shedding tier, overriding the emitter's default
  /// (the component's declared priority for spouts, the input's priority for
  /// bolts). Used by the distributed ingress to preserve the sender-side
  /// priority across a worker hop; most components never call this. The
  /// default ignores the override.
  virtual void EmitPrioritized(TuplePriority priority,
                               std::vector<Value> values) {
    (void)priority;
    Emit(std::move(values));
  }

  /// EmitRooted with an explicit shedding tier (see EmitPrioritized); the
  /// distributed ingress uses this so tuple trees re-rooted after a network
  /// hop keep the sender-side priority. The default ignores the override.
  virtual void EmitRootedPrioritized(TuplePriority priority,
                                     uint64_t message_id,
                                     std::vector<Value> values) {
    (void)priority;
    EmitRooted(message_id, std::move(values));
  }
};

/// An input source: spouts feed the topology with data (Section 2.1.1).
/// One instance exists per task. NextTuple pushes zero or more tuples and
/// returns false when the source is exhausted (the runtime then marks this
/// spout task finished).
class Spout {
 public:
  virtual ~Spout() = default;
  virtual void Open(const TaskContext& /*context*/) {}
  virtual bool NextTuple(Collector* collector) = 0;
  /// At-least-once callbacks (acking topologies only; see EmitRooted).
  /// Delivered on the spout's executor thread, like NextTuple. Ack fires
  /// when the message's tuple tree fully processed; Fail fires when the
  /// tree timed out and exhausted its replay budget.
  virtual void Ack(uint64_t /*message_id*/) {}
  virtual void Fail(uint64_t /*message_id*/) {}
  virtual void Close() {}
};

/// Processing logic node. One instance per task.
class Bolt {
 public:
  virtual ~Bolt() = default;
  virtual void Prepare(const TaskContext& /*context*/) {}
  virtual void Execute(const Tuple& input, Collector* collector) = 0;

  /// The runtime never calls these two: every bolt runs one Execute per
  /// tuple. They are kept, with these defaults, only because the system
  /// benchmark (perfbench/) calls them on the bolts it replays.
  virtual bool SupportsExecuteBatch() const { return false; }
  virtual void ExecuteBatch(const Tuple* inputs, size_t count,
                            Collector* collector) {
    for (size_t i = 0; i < count; ++i) Execute(inputs[i], collector);
  }

  virtual void Cleanup() {}
};

/// Opt-in mixin for bolts with recoverable state. When the runtime runs with
/// `Options::enable_checkpointing`, every task whose bolt implements this
/// interface is checkpointed: the executor periodically serializes the bolt
/// at a batch boundary and hands the bytes to the CheckpointCoordinator's
/// background persister; a relaunched executor feeds the latest durable
/// snapshot back through RestoreState (after Prepare) before resuming the
/// task's queue.
///
/// Contract: RestoreState must either fully apply the snapshot or leave the
/// bolt in a clean freshly-prepared state and return an error — a partial
/// restore would silently corrupt recovered results. cep::Engine::Restore
/// follows the same rule, so engine-backed bolts can simply forward.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual Status SnapshotState(std::string* out) const = 0;
  virtual Status RestoreState(const std::string& bytes) = 0;
};

using SpoutFactory = std::function<std::unique_ptr<Spout>()>;
using BoltFactory = std::function<std::unique_ptr<Bolt>()>;

/// One subscription edge of the topology graph.
struct Subscription {
  std::string source;
  Grouping grouping = Grouping::kShuffle;
  /// Field names hashed for kFields.
  std::vector<std::string> fields;
};

/// A component definition: the user decides the number of executors
/// (threads) and tasks (component instances); tasks in excess of executors
/// run pseudo-parallel on shared executors (Figure 1).
struct ComponentDef {
  std::string name;
  bool is_spout = false;
  SpoutFactory spout_factory;
  BoltFactory bolt_factory;
  int num_executors = 1;
  int num_tasks = 1;
  Fields output_fields;
  std::vector<Subscription> subscriptions;  // bolts only
  /// Shedding tier stamped on this component's emissions (spouts seed the
  /// tier; bolt emissions inherit their input's tier, so the declared value
  /// only matters for spouts). See dsps/overload.h.
  TuplePriority priority = TuplePriority::kNormal;
};

/// A validated processing graph.
class Topology {
 public:
  const std::vector<ComponentDef>& components() const { return components_; }
  const ComponentDef* Find(const std::string& name) const;
  /// Components subscribed to `source`.
  std::vector<const ComponentDef*> Subscribers(const std::string& source) const;
  int total_tasks() const;
  int total_executors() const;

 private:
  friend class TopologyBuilder;
  std::vector<ComponentDef> components_;
};

/// Fluent builder mirroring Storm's TopologyBuilder.
class TopologyBuilder {
 public:
  /// Declarer returned by SetBolt for wiring subscriptions.
  class BoltDeclarer {
   public:
    BoltDeclarer& ShuffleGrouping(const std::string& source);
    BoltDeclarer& FieldsGrouping(const std::string& source,
                                 std::vector<std::string> fields);
    BoltDeclarer& AllGrouping(const std::string& source);
    BoltDeclarer& GlobalGrouping(const std::string& source);
    BoltDeclarer& DirectGrouping(const std::string& source);

   private:
    friend class TopologyBuilder;
    BoltDeclarer(TopologyBuilder* builder, size_t index)
        : builder_(builder), index_(index) {}
    TopologyBuilder* builder_;
    size_t index_;
  };

  /// Adds a spout. `num_tasks` defaults to `num_executors`.
  TopologyBuilder& SetSpout(const std::string& name, SpoutFactory factory,
                            Fields output_fields, int num_executors = 1,
                            int num_tasks = -1);

  BoltDeclarer SetBolt(const std::string& name, BoltFactory factory,
                       Fields output_fields, int num_executors = 1,
                       int num_tasks = -1);

  /// Sets the shedding tier of an already-declared component (see
  /// ComponentDef::priority). Checks that the component exists at Build.
  TopologyBuilder& SetPriority(const std::string& name,
                               TuplePriority priority);

  /// Validates and produces the topology: unique names, known subscription
  /// sources, fields-grouping fields present in the source's declaration,
  /// every bolt subscribed to something, no cycles (emission is downstream
  /// only), executors <= tasks.
  Result<Topology> Build() const;

 private:
  std::vector<ComponentDef> components_;
  std::vector<std::string> missing_priority_targets_;
};

}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_TOPOLOGY_H_
