#include "dsps/local_runtime.h"

#include <pthread.h>

#include <chrono>
#include <functional>

#include "cep/view.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/logging.h"

namespace insight {
namespace dsps {

namespace {

uint64_t HashValues(const std::vector<Value>& values,
                    const std::vector<int>& indexes) {
  // Hash the Value directly (no ToString round-trip). cep::ValueHash gives
  // Equals-consistent hashing, so 5 and 5.0 route to the same task.
  cep::ValueHash value_hash;
  uint64_t h = 1469598103934665603ULL;
  for (int idx : indexes) {
    h ^= static_cast<uint64_t>(value_hash(values[static_cast<size_t>(idx)]));
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Splitmix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Identity salt of one spout task: message ids are only unique per spout
/// task (each spout numbers its own stream), so every message-id-derived key
/// must fold the emitting task in or two spouts reusing one id space would
/// collide in the acker and the replay buffer.
uint64_t SpoutScope(int spout_component, int spout_task) {
  uint64_t packed =
      (static_cast<uint64_t>(static_cast<uint32_t>(spout_component)) << 32) |
      static_cast<uint64_t>(static_cast<uint32_t>(spout_task));
  return Splitmix(packed + 0x8f1bbcdcbfa53e0bULL);
}

/// Acker key of (spout task, message, attempt). Mixing the attempt in means
/// tuples of a timed-out attempt still draining through the topology ack a
/// key that no longer exists, instead of corrupting the replay's fresh
/// tree; mixing the spout scope in keeps same-numbered messages of
/// different spouts on distinct trees.
uint64_t RootKey(int spout_component, int spout_task, uint64_t message_id,
                 int attempt) {
  uint64_t z = Splitmix((message_id ^ SpoutScope(spout_component, spout_task)) +
                        0x9e3779b97f4a7c15ULL *
                            static_cast<uint64_t>(attempt + 1));
  return z == 0 ? 1 : z;
}

/// Task checkpoint container ("TCK1"): {magic, version, has_ledger u8,
/// [ledger], bolt blob (length-prefixed)}. The container wraps the bolt's
/// own versioned snapshot, so the dedup ledger and the state it protects
/// are always persisted and restored as one atomic unit.
constexpr uint32_t kTaskSnapshotMagic = 0x314b4354;  // "TCK1"
constexpr uint32_t kTaskSnapshotVersion = 1;

/// Dedup ids a checkpointed task remembers (reliability::DedupLedger).
constexpr size_t kDedupLedgerCapacity = 4096;

}  // namespace

/// Routes emissions of one task. Bound to the task for its whole lifetime;
/// the current input's spout_time is set before each Execute call so output
/// tuples inherit their origin time, and — under acking — the input's root
/// key so emitted tuples are anchored to the same tree.
class LocalRuntime::TaskCollector : public Collector {
 public:
  TaskCollector(LocalRuntime* runtime, int component_index, int task_index,
                bool is_spout)
      : runtime_(runtime),
        component_index_(component_index),
        task_index_(task_index),
        is_spout_(is_spout),
        schema_(runtime->fields_[static_cast<size_t>(component_index)].get()),
        declared_priority_(
            runtime->topology_.components()[static_cast<size_t>(
                                                component_index)]
                .priority),
        current_priority_(declared_priority_) {
    outbox_.per_task.resize(static_cast<size_t>(runtime->total_tasks_));
  }

  void Emit(std::vector<Value> values) override {
    EmitValues(/*direct_task=*/-1, current_priority_, std::move(values));
  }

  void EmitDirect(int target_task, std::vector<Value> values) override {
    EmitValues(target_task, current_priority_, std::move(values));
  }

  /// Shares the input's payload: a refcount bump instead of a copy of its
  /// values, and one buffer for every task the input is forwarded to.
  void ForwardDirect(int target_task, const Tuple& input) override {
    EmitTuple(target_task, current_priority_,
              Tuple(schema_, input.payload(), current_spout_time_));
  }

  void EmitPrioritized(TuplePriority priority,
                       std::vector<Value> values) override {
    EmitValues(/*direct_task=*/-1, priority, std::move(values));
  }

  void EmitRooted(uint64_t message_id, std::vector<Value> values) override {
    EmitRootedPrioritized(current_priority_, message_id, std::move(values));
  }

  void EmitRootedPrioritized(TuplePriority priority, uint64_t message_id,
                             std::vector<Value> values) override {
    if (is_spout_ && runtime_->options_.enable_acking) {
      runtime_->EmitTracked(component_index_, task_index_, message_id,
                            /*attempt=*/0, std::move(values),
                            current_spout_time_, priority, &emitted_,
                            &outbox_);
      return;
    }
    EmitValues(/*direct_task=*/-1, priority, std::move(values));
  }

  Outbox* outbox() { return &outbox_; }

  /// Bolt-side: bind the collector to the input about to be executed.
  void BeginExecute(const Tuple& input) {
    current_spout_time_ = input.spout_time();
    current_root_key_ = input.root_key();
    current_dedup_id_ = input.dedup_id();
    current_trace_id_ = input.trace_id();
    // Emissions inherit the input's shedding tier (a detection derived from
    // a high-priority tuple stays high-priority downstream).
    current_priority_ = input.priority();
    ack_batch_ = 0;
    // Per-execution emission sequence: replayed executions reproduce the
    // same dedup-id chain because the sequence restarts at every input.
    dedup_seq_ = 0;
    outbox_.blocked_micros = 0;
    if (chained_ != nullptr) chained_->elapsed_micros = 0;
  }

  /// Chains this (upstream) task's one subscriber task behind it.
  void set_chained(ChainedTask* next) { chained_ = next; }
  /// Time the current execution spent in chained callees / blocked on full
  /// downstream queues.
  MicrosT callee_micros() const {
    return chained_ != nullptr ? chained_->elapsed_micros : 0;
  }
  MicrosT blocked_micros() const { return outbox_.blocked_micros; }

  void set_current_spout_time(MicrosT t) { current_spout_time_ = t; }
  uint64_t TakeAckBatch() {
    uint64_t b = ack_batch_;
    ack_batch_ = 0;
    return b;
  }
  uint64_t TakeEmitted() {
    uint64_t e = emitted_;
    emitted_ = 0;
    return e;
  }
  int task_index() const { return task_index_; }

 private:
  /// Spout-side trace anchoring for the untracked emit path: each plain
  /// spout Emit is a fresh root emission, so it gets its own sampling
  /// decision. Without acking no final ack exists to close a root span, so
  /// the trace only groups the hop spans (open_root=false). Bolt emissions
  /// inherit the input's trace id from BeginExecute instead. The acked
  /// spout path (EmitRooted -> EmitTracked) never reaches this: there the
  /// runtime samples with an open root that the final ack closes. With no
  /// root span to open the trace needs no start time, so an unsampled
  /// emission does not read the clock.
  void MaybeTraceSpoutEmit(Tuple* tuple) {
    if (is_spout_ && runtime_->tracer_ != nullptr) {
      current_trace_id_ =
          runtime_->tracer_->MaybeStartTrace(/*now=*/0, /*open_root=*/false);
    }
    tuple->set_trace_id(current_trace_id_);
  }

  void EmitValues(int direct_task, TuplePriority priority,
                  std::vector<Value> values) {
    EmitTuple(direct_task, priority,
              Tuple(schema_, std::move(values), current_spout_time_));
  }

  /// The one emit routine behind Emit, EmitDirect, ForwardDirect and the
  /// prioritized variants (all but a spout's tracked EmitRooted, which
  /// EmitTracked roots): a bolt's output joins its input's tree when the
  /// input has one.
  void EmitTuple(int direct_task, TuplePriority priority, Tuple tuple) {
    tuple.set_priority(priority);
    Emission emission;
    emission.source_component = component_index_;
    emission.chained = chained_;
    emission.outbox = &outbox_;
    emission.emitted = &emitted_;
    if (current_root_key_ != 0) {
      tuple.set_root_key(current_root_key_);
      emission.ack_batch = &ack_batch_;
      if (current_dedup_id_ != 0) {
        emission.dedup_seq = &dedup_seq_;
        emission.dedup_base = current_dedup_id_;
      }
    }
    MaybeTraceSpoutEmit(&tuple);
    runtime_->Route(emission, tuple, direct_task);
  }

  LocalRuntime* runtime_;
  int component_index_;
  int task_index_;
  bool is_spout_;
  /// The component's output schema, owned by the runtime.
  const Fields* schema_;
  /// The component's declared shedding tier: the default for spout
  /// emissions; bolts override per input in BeginExecute.
  TuplePriority declared_priority_;
  TuplePriority current_priority_;
  MicrosT current_spout_time_ = 0;
  uint64_t current_root_key_ = 0;
  uint64_t current_dedup_id_ = 0;
  uint64_t current_trace_id_ = 0;
  uint64_t dedup_seq_ = 0;
  uint64_t ack_batch_ = 0;
  uint64_t emitted_ = 0;
  ChainedTask* chained_ = nullptr;
  Outbox outbox_;
};

LocalRuntime::LocalRuntime(Topology topology, Options options)
    : topology_(std::move(topology)), options_(options) {
  if (options_.enable_acking) {
    acker_ = std::make_unique<reliability::Acker>();
    reliability::ReplayPolicy policy;
    policy.max_replays = options_.max_replays;
    policy.backoff_base_micros = options_.replay_backoff_micros;
    replay_ = std::make_unique<reliability::ReplayBuffer>(policy);
  }
  if (options_.enable_tracing) {
    observability::Tracer::Options topts;
    topts.sample_rate = options_.trace_sample_rate;
    tracer_ = std::make_unique<observability::Tracer>(topts);
    std::vector<std::string> names;
    for (const ComponentDef& def : topology_.components()) {
      names.push_back(def.name);
    }
    tracer_->SetComponentNames(std::move(names));
  }

  const auto& components = topology_.components();
  fields_.resize(components.size());
  tasks_.resize(components.size());
  routes_.resize(components.size());
  shuffle_counters_ = std::vector<std::atomic<uint64_t>>(components.size());

  for (size_t c = 0; c < components.size(); ++c) {
    const ComponentDef& def = components[c];
    fields_[c] = std::make_unique<const Fields>(def.output_fields);
    metrics_.DeclareComponent(def.name, def.num_tasks);
    for (int t = 0; t < def.num_tasks; ++t) {
      TaskRuntime task;
      task.component_index = static_cast<int>(c);
      task.task_index = t;
      if (def.is_spout) {
        task.spout = def.spout_factory();
        if (options_.enable_acking) {
          task.events = std::make_unique<SpoutEventQueue>();
        }
      } else {
        task.bolt = def.bolt_factory();
        task.input = std::make_unique<TaskQueue>(
            options_.queue_capacity, options_.overload.enable_load_shedding,
            &stopping_, options_.clock);
      }
      tasks_[c].push_back(std::move(task));
    }
  }

  // Routing table: for each source component, its subscriber edges.
  for (size_t c = 0; c < components.size(); ++c) {
    for (const Subscription& sub : components[c].subscriptions) {
      const ComponentDef* source = topology_.Find(sub.source);
      INSIGHT_CHECK(source != nullptr);
      size_t source_index = 0;
      for (size_t s = 0; s < components.size(); ++s) {
        if (components[s].name == sub.source) source_index = s;
      }
      RouteTarget target;
      target.component_index = static_cast<int>(c);
      target.grouping = sub.grouping;
      for (const std::string& f : sub.fields) {
        target.field_indexes.push_back(source->output_fields.IndexOf(f));
      }
      routes_[source_index].push_back(std::move(target));
    }
  }

  // Operator chaining: bolt B runs inside its upstream bolt A's executor
  // when B's only subscription is a shuffle from A, A has no other
  // subscriber, both have equal task and executor counts, and B is not
  // Snapshottable (a chained task is never checkpointed on its own). The
  // chained tasks get no input queue; Start() gives them no executor.
  chain_next_.assign(components.size(), -1);
  chain_prev_.assign(components.size(), -1);
  for (size_t b = 0; b < components.size(); ++b) {
    const ComponentDef& def = components[b];
    if (def.is_spout || def.subscriptions.size() != 1 ||
        def.subscriptions[0].grouping != Grouping::kShuffle) {
      continue;
    }
    size_t a = 0;
    while (components[a].name != def.subscriptions[0].source) ++a;
    const ComponentDef& head = components[a];
    if (head.is_spout || routes_[a].size() != 1 ||
        head.num_tasks != def.num_tasks ||
        head.num_executors != def.num_executors ||
        dynamic_cast<Snapshottable*>(tasks_[b][0].bolt.get()) != nullptr) {
      continue;
    }
    routes_[a][0].chained = true;
    chain_next_[a] = static_cast<int>(b);
    chain_prev_[b] = static_cast<int>(a);
    for (TaskRuntime& task : tasks_[b]) task.input.reset();
  }

  // Flat global task ids for the outbox staging buffers.
  task_base_.resize(components.size(), 0);
  total_tasks_ = 0;
  for (size_t c = 0; c < components.size(); ++c) {
    task_base_[c] = total_tasks_;
    total_tasks_ += components[c].num_tasks;
  }
  queue_of_.assign(static_cast<size_t>(total_tasks_), nullptr);
  for (size_t c = 0; c < components.size(); ++c) {
    for (size_t t = 0; t < tasks_[c].size(); ++t) {
      queue_of_[static_cast<size_t>(task_base_[c]) + t] =
          tasks_[c][t].input.get();
    }
  }

  // Load shedding: cached metrics handles for shed attribution, built only
  // when shedding is on.
  if (options_.overload.enable_load_shedding) {
    shedding_ = true;
    overload_refs_.resize(static_cast<size_t>(total_tasks_));
    for (size_t c = 0; c < components.size(); ++c) {
      for (size_t t = 0; t < tasks_[c].size(); ++t) {
        size_t gid = static_cast<size_t>(task_base_[c]) + t;
        if (queue_of_[gid] == nullptr) continue;  // spout task
        overload_refs_[gid] =
            metrics_.RefFor(components[c].name, static_cast<int>(t));
      }
    }
  }

  // Checkpointing: every task whose bolt implements Snapshottable gets a
  // coordinator slot (and, under dedup, a ledger). Decided from the initial
  // bolt instance; factories return the same concrete type on relaunch.
  if (options_.enable_checkpointing) {
    INSIGHT_CHECK(options_.state_store != nullptr)
        << "enable_checkpointing requires a state_store";
    reliability::CheckpointCoordinator::Options copts;
    copts.interval_micros = options_.checkpoint_interval_micros;
    copts.store = options_.state_store;
    copts.clock = options_.clock;
    coordinator_ = std::make_unique<reliability::CheckpointCoordinator>(copts);
    bool any_checkpointed = false;
    for (size_t c = 0; c < components.size(); ++c) {
      for (auto& task : tasks_[c]) {
        if (task.bolt == nullptr ||
            dynamic_cast<Snapshottable*>(task.bolt.get()) == nullptr) {
          continue;
        }
        task.ckpt_slot = coordinator_->RegisterTask(
            components[c].name + "/" + std::to_string(task.task_index));
        if (options_.enable_replay_dedup) {
          task.ledger =
              std::make_unique<reliability::DedupLedger>(kDedupLedgerCapacity);
        }
        any_checkpointed = true;
      }
    }
    dedup_enabled_ = options_.enable_replay_dedup && options_.enable_acking &&
                     any_checkpointed;
  }
}

LocalRuntime::~LocalRuntime() { Stop(); }

Status LocalRuntime::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("runtime already started");
  }
  int spout_tasks = 0;
  for (const ComponentDef& def : topology_.components()) {
    if (def.is_spout) spout_tasks += def.num_tasks;
  }
  live_spout_tasks_.store(spout_tasks);
  metrics_.MarkWindowStart(options_.clock->NowMicros());
  if (coordinator_ != nullptr) coordinator_->Start();

  const auto& components = topology_.components();
  for (size_t c = 0; c < components.size(); ++c) {
    if (chain_prev_[c] >= 0) continue;  // runs on its chain head's executors
    for (int e = 0; e < components[c].num_executors; ++e) {
      auto slot = std::make_unique<ExecutorSlot>();
      slot->component_index = static_cast<int>(c);
      slot->executor_index = e;
      executors_.push_back(std::move(slot));
    }
  }
  for (auto& slot : executors_) {
    ExecutorSlot* raw = slot.get();
    slot->thread = Thread([this, raw] { ExecutorLoop(raw); });
  }
  if (options_.monitor_interval_micros > 0) {
    monitor_thread_ = Thread([this] { MonitorLoop(); });
  }
  if (options_.enable_acking || options_.fault_injector != nullptr) {
    supervisor_thread_ = Thread([this] { SupervisorLoop(); });
  }
  return Status::OK();
}

bool LocalRuntime::AwaitQuiescence() {
  MutexLock lock(done_mutex_);
  while (!(stopping_.load() ||
           (live_spout_tasks_.load() == 0 && in_flight_.load() == 0 &&
            pending_roots_.load() == 0))) {
    done_cv_.Wait(done_mutex_);
  }
  if (stopping_.load()) return false;
  idle_.store(true);
  return true;
}

Status LocalRuntime::Feed(const std::string& component,
                          std::function<void(Spout*, int)> feed) {
  idle_.store(false);
  return PostTaskAction(component, std::move(feed), nullptr);
}

Status LocalRuntime::RunOnTasks(const std::string& component,
                                std::function<void(Bolt*, int)> action) {
  return PostTaskAction(component, nullptr, std::move(action));
}

Status LocalRuntime::PostTaskAction(const std::string& component,
                                    std::function<void(Spout*, int)> spout_action,
                                    std::function<void(Bolt*, int)> bolt_action) {
  if (!started_.load() || stopping_.load()) {
    return Status::FailedPrecondition("runtime is not running");
  }
  const auto& components = topology_.components();
  int component_index = -1;
  for (size_t c = 0; c < components.size(); ++c) {
    if (components[c].name == component) component_index = static_cast<int>(c);
  }
  if (component_index < 0) {
    return Status::NotFound("no component '" + component + "'");
  }
  const ComponentDef& def = components[static_cast<size_t>(component_index)];
  if (def.is_spout != (spout_action != nullptr)) {
    return Status::InvalidArgument("'" + component + "' is " +
                                   (def.is_spout ? "a spout" : "a bolt"));
  }
  MutexLock call(action_call_mutex_);
  const uint64_t epoch = action_epoch_.load() + 1;
  {
    MutexLock lock(action_.mutex);
    action_.epoch = epoch;
    action_.component_index = component_index;
    action_.spout_action = std::move(spout_action);
    action_.bolt_action = std::move(bolt_action);
    action_.remaining = def.num_tasks;
  }
  action_epoch_.store(epoch, std::memory_order_release);
  // Wake the component's executors wherever they park: idle between
  // batches, or on their first task's queue (a chained component's
  // executors are its chain head's).
  {
    MutexLock lock(done_mutex_);
    idle_cv_.NotifyAll();
  }
  int owner = component_index;
  while (chain_prev_[static_cast<size_t>(owner)] >= 0) {
    owner = chain_prev_[static_cast<size_t>(owner)];
  }
  for (auto& task : tasks_[static_cast<size_t>(owner)]) {
    if (task.input != nullptr) task.input->Wake();
  }
  MutexLock lock(action_.mutex);
  while (action_.remaining > 0 && !stopping_.load()) {
    action_.done.WaitFor(action_.mutex, std::chrono::milliseconds(10));
  }
  const bool done = action_.remaining == 0;
  action_.component_index = -1;
  action_.spout_action = nullptr;
  action_.bolt_action = nullptr;
  if (!done) return Status::FailedPrecondition("runtime stopped");
  return Status::OK();
}

void LocalRuntime::RunTaskAction(uint64_t epoch, int component_index,
                                 const std::vector<TaskRuntime*>& my_tasks) {
  std::function<void(Spout*, int)> spout_action;
  std::function<void(Bolt*, int)> bolt_action;
  {
    MutexLock lock(action_.mutex);
    if (action_.epoch != epoch || action_.component_index != component_index) {
      return;
    }
    spout_action = action_.spout_action;
    bolt_action = action_.bolt_action;
  }
  int ran = 0;
  for (TaskRuntime* task : my_tasks) {
    if (task->action_epoch == epoch) continue;
    task->action_epoch = epoch;
    if (task->spout != nullptr) {
      spout_action(task->spout.get(), task->task_index);
      if (task->spout_done) {
        task->spout_done = false;
        live_spout_tasks_.fetch_add(1);
      }
    } else {
      bolt_action(task->bolt.get(), task->task_index);
    }
    ++ran;
  }
  if (ran == 0) return;
  MutexLock lock(action_.mutex);
  action_.remaining -= ran;
  if (action_.remaining == 0) action_.done.NotifyAll();
}

void LocalRuntime::ParkIdle(uint64_t seen_epoch, bool is_spout) {
  MutexLock lock(done_mutex_);
  while (!stopping_.load() &&
         action_epoch_.load(std::memory_order_acquire) == seen_epoch &&
         (is_spout || idle_.load())) {
    if (!idle_cv_.WaitFor(done_mutex_, std::chrono::milliseconds(100))) return;
  }
}

void LocalRuntime::NotifyPossiblyDone() {
  if (live_spout_tasks_.load() == 0 && in_flight_.load() == 0 &&
      pending_roots_.load() == 0) {
    MutexLock lock(done_mutex_);
    done_cv_.NotifyAll();
  }
}

void LocalRuntime::AwaitCompletion() {
  // A naturally drained topology is quiescent: with no live spout task, no
  // pending tree, and no in-flight tuple there is no source of new work, so
  // the counts must still be exactly zero here.
  if (AwaitQuiescence()) {
    TMS_DCHECK_EQ(in_flight_.load(), int64_t{0})
        << "tuples in flight after quiescent drain";
    TMS_DCHECK_EQ(pending_roots_.load(), size_t{0})
        << "pending trees after quiescent drain";
  }
  Stop();
}

void LocalRuntime::Stop() {
  if (!started_.load()) return;
  bool was_stopping = stopping_.exchange(true);
  // Wake everyone: emitters blocked on full queues, executors on empty ones.
  // TaskQueue::Wake notifies under the queue mutex, so a waiter that checked
  // `stopping_` just before it was set cannot miss the wake (backpressure
  // deadlock on Stop).
  for (auto& component_tasks : tasks_) {
    for (auto& task : component_tasks) {
      if (task.input != nullptr) task.input->Wake();
    }
  }
  {
    MutexLock lock(done_mutex_);
    done_cv_.NotifyAll();
    idle_cv_.NotifyAll();
  }
  {
    MutexLock lock(action_.mutex);
    action_.done.NotifyAll();
  }
  if (was_stopping) return;
  // Supervisor first, so it cannot relaunch executor threads underneath the
  // joins below.
  if (supervisor_thread_.joinable()) supervisor_thread_.join();
  for (auto& slot : executors_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  if (monitor_thread_.joinable()) monitor_thread_.join();
  // Drain-then-join: submitted checkpoints still persist (and flush their
  // deferred acks) before the persister exits.
  if (coordinator_ != nullptr) coordinator_->Stop();
  // Tuples abandoned in input queues are dropped on stop; balance the
  // in-flight count so it provably returns to zero — no leaked in-flight
  // work no matter how Stop interleaved with crashes and relaunches.
  int64_t abandoned = 0;
  for (auto& component_tasks : tasks_) {
    for (auto& task : component_tasks) {
      if (task.input != nullptr) {
        abandoned += static_cast<int64_t>(task.input->Clear());
      }
    }
  }
  if (abandoned > 0) in_flight_.fetch_sub(abandoned);
  TMS_DCHECK_EQ(in_flight_.load(), int64_t{0})
      << "in-flight tuples leaked across Stop";
  finished_.store(true);
}

uint64_t LocalRuntime::NextEdgeId() {
  uint64_t z = Splitmix(
      edge_seq_.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed));
  return z == 0 ? 1 : z;
}

void LocalRuntime::Stage(int target_component, int task_index, Tuple tuple,
                         Outbox* outbox) {
  size_t gid =
      static_cast<size_t>(task_base_[static_cast<size_t>(target_component)] +
                          task_index);
  TMS_DCHECK_LT(gid, outbox->per_task.size()) << "staged past the task table";
  TMS_DCHECK(queue_of_[gid] != nullptr)
      << "tuple staged to spout task " << gid << " (spouts have no input)";
  // Tracked tuples must carry their tree edge before they are staged: the
  // edge id was XORed into the emitter's ack batch at Deliver time, and an
  // edge-less copy could never be acked back out of the accumulator.
  TMS_DCHECK(tuple.root_key() == 0 || tuple.edge_id() != 0)
      << "tracked tuple staged without an edge id";
  // Queue-wait spans start here: the staging timestamp covers outbox
  // residency plus the target queue wait, i.e. everything between the
  // emitter's hand and the consumer's Execute. One branch for untraced
  // tuples; the clock is read only for sampled ones.
  if (tuple.trace_id() != 0) {
    tuple.set_trace_enqueue_micros(options_.clock->NowMicros());
  }
  std::vector<Tuple>& block = outbox->per_task[gid];
  // TMS_ANALYZE_EXEMPT(amortized: dirty list and staging blocks are cleared
  // by FlushOutbox with capacity retained, so steady-state staging reuses it)
  if (block.empty()) outbox->dirty.push_back(static_cast<uint32_t>(gid));
  block.push_back(std::move(tuple));  // TMS_ANALYZE_EXEMPT(capacity retained)
  // Counted in flight when the outbox flushes; until then the emitter's
  // unsettled input (or live spout task) keeps the topology from quiescing.
  if (++outbox->staged >= options_.emit_batch) FlushOutbox(outbox);
}

void LocalRuntime::FlushOutbox(Outbox* outbox) {
  if (outbox->staged == 0) return;
  // One addition per flush, before any block reaches a queue: a consumer
  // can only settle a tuple that is already counted.
  in_flight_.fetch_add(static_cast<int64_t>(outbox->staged));
  bool dropped = false;
  size_t handed_off = 0;  // enqueued + dropped, to balance against staged
  for (uint32_t gid : outbox->dirty) {
    std::vector<Tuple>& block = outbox->per_task[gid];
    // Dirty entries are recorded exactly at a block's empty->nonempty
    // transition and cleared together with the blocks, so each entry is
    // unique and its block nonempty; an empty block here means the dirty
    // list and the staging buffers disagree.
    TMS_DCHECK(!block.empty()) << "duplicate dirty entry for task " << gid;
    if (block.empty()) continue;
    const size_t n = block.size();
    handed_off += n;
    if (!queue_of_[gid]->Append(&block, &outbox->blocked_micros)) {
      // Dropped on shutdown.
      int64_t prev = in_flight_.fetch_sub(static_cast<int64_t>(n));
      TMS_DCHECK_GE(prev, static_cast<int64_t>(n))
          << "in-flight count went negative dropping a block";
      dropped = true;
    }
  }
  // FIFO hand-off is per-block: everything staged leaves the outbox in this
  // flush, enqueued in staging order or dropped on shutdown.
  TMS_DCHECK_EQ(handed_off, outbox->staged)
      << "outbox flushed a different tuple count than was staged";
  outbox->dirty.clear();
  outbox->staged = 0;
  if (dropped) NotifyPossiblyDone();
}

void LocalRuntime::Deliver(const Emission& emission, int target_component,
                           int task_index, const Tuple& tuple) {
  reliability::FaultInjector::RouteDecision decision;
  if (options_.fault_injector != nullptr) {
    decision = options_.fault_injector->OnRoute(
        topology_.components()[static_cast<size_t>(emission.source_component)]
            .name,
        topology_.components()[static_cast<size_t>(target_component)].name);
  }
  if (decision.delay_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(decision.delay_micros));
  }
  // The dedup id is drawn once per Deliver call, not per copy: an
  // injector-duplicated copy is the same logical tuple, so both copies must
  // share an id for the ledger to suppress the second execution. A dropped
  // delivery still advances the sequence — the replayed attempt re-derives
  // the same chain positions only if every Deliver consumes one slot. (Shed
  // decisions come after the draw for the same reason: an attempt that sheds
  // differently must not shift the surviving tuples' chain positions.)
  uint64_t dedup_id = 0;
  if (emission.dedup_seq != nullptr) {
    uint64_t d = Splitmix(emission.dedup_base ^
                          (0x9e3779b97f4a7c15ULL * ++*emission.dedup_seq));
    dedup_id = d == 0 ? 1 : d;
  }
  int copies = decision.duplicate ? 2 : 1;
  if (shedding_ && emission.chained == nullptr) {
    size_t gid = static_cast<size_t>(
        task_base_[static_cast<size_t>(target_component)] + task_index);
    double occupancy = queue_of_[gid]->Occupancy();
    const TuplePriority priority = tuple.priority();
    bool shed =
        (priority == TuplePriority::kLow &&
         occupancy >= options_.overload.shed_low_watermark) ||
        (priority == TuplePriority::kNormal &&
         occupancy >= options_.overload.shed_high_watermark);
    if (shed) {
      // The delivery is dropped at the emitter, before staging: still
      // counted as emitted (so emitted == delivered + shed + in-flight
      // balances) and per-priority in tuples_shed, attributed to the task
      // whose queue is saturated. kHigh never reaches here.
      for (int i = 0; i < copies; ++i) {
        ++*emission.emitted;
        overload_refs_[gid].RecordShed(priority);
      }
      if (emission.ack_batch != nullptr && tuple.root_key() != 0 &&
          acker_ != nullptr) {
        // Fail fast: shedding any tuple of a tracked tree fails the whole
        // message now — Spout::Fail fires immediately and the replay
        // payload is discarded — instead of leaving an unbalanced edge to
        // time out. Copies already in flight ack an unknown key, which the
        // acker ignores.
        if (auto info = acker_->Discard(tuple.root_key())) {
          FailDiscardedTree(*info);
        }
      }
      return;
    }
  }
  for (int i = 0; i < copies; ++i) {
    Tuple copy = tuple;  // payload is refcount-shared, not deep-copied
    if (dedup_id != 0) copy.set_dedup_id(dedup_id);
    if (emission.ack_batch != nullptr) {
      // Each delivered instance is one tree edge: a fresh random id, XORed
      // into the emitter's batch at stage time. A dropped tuple's edge is
      // still counted — it will never be acked, so the tree times out and
      // replays, exactly like a network loss under Storm.
      uint64_t edge = NextEdgeId();
      copy.set_edge_id(edge);
      *emission.ack_batch ^= edge;
    }
    ++*emission.emitted;
    if (decision.drop) continue;
    if (emission.chained != nullptr) {
      ExecuteChained(emission.chained, copy, emission.ack_batch);
    } else {
      Stage(target_component, task_index, std::move(copy), emission.outbox);
    }
  }
}

void LocalRuntime::ExecuteChained(ChainedTask* link, const Tuple& tuple,
                                  uint64_t* ack_batch) {
  if (*link->crashed) return;  // the executor died earlier in this call
  TaskRuntime* task = link->task;
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldCrash(
          topology_.components()[static_cast<size_t>(task->component_index)]
              .name,
          task->task_index)) {
    // Killing a chained member kills its whole executor: the head's
    // executor loop exits once the head's Execute returns.
    *link->crashed = true;
    return;
  }
  TaskCollector* collector = link->collector;
  collector->BeginExecute(tuple);
  const MicrosT start = options_.clock->NowMicros();
  task->bolt->Execute(tuple, collector);
  const MicrosT end = options_.clock->NowMicros();
  if (*link->crashed) return;
  link->elapsed_micros += end - start;
  RecordExecution(tuple, *task, collector, &link->ref, start, end,
                  /*queued=*/false);
  // The consumed edge cancels the one Deliver XORed in, so the caller's
  // batch ends up holding exactly the edges the chained task emitted.
  if (ack_batch != nullptr) {
    *ack_batch ^= tuple.edge_id() ^ collector->TakeAckBatch();
  }
}

void LocalRuntime::RecordExecution(const Tuple& tuple, const TaskRuntime& task,
                                   TaskCollector* collector,
                                   MetricsRegistry::TaskRef* ref,
                                   MicrosT start, MicrosT end, bool queued) {
  const MicrosT blocked = collector->blocked_micros();
  const MicrosT self =
      std::max<MicrosT>(0, end - start - collector->callee_micros() - blocked);
  ref->Record(self);
  uint64_t emitted = collector->TakeEmitted();
  if (emitted > 0) ref->RecordEmit(emitted);
  if (tracer_ == nullptr || tuple.trace_id() == 0) return;
  if (queued) {
    tracer_->RecordSpan(tuple.trace_id(), observability::SpanKind::kQueueWait,
                        task.component_index, task.task_index,
                        tuple.trace_enqueue_micros(), start);
  }
  tracer_->RecordSpan(tuple.trace_id(), observability::SpanKind::kExecute,
                      task.component_index, task.task_index, start,
                      start + self);
  if (blocked > 0) {
    tracer_->RecordSpan(tuple.trace_id(), observability::SpanKind::kEmitBlocked,
                        task.component_index, task.task_index, end - blocked,
                        end);
  }
}

void LocalRuntime::Route(const Emission& emission, const Tuple& tuple,
                         int direct_task) {
  const size_t source = static_cast<size_t>(emission.source_component);
  for (const RouteTarget& target : routes_[source]) {
    const int component = target.component_index;
    const int num_tasks =
        static_cast<int>(tasks_[static_cast<size_t>(component)].size());
    if (direct_task >= 0) {
      if (target.grouping != Grouping::kDirect) continue;
      INSIGHT_CHECK(direct_task < num_tasks)
          << "EmitDirect task " << direct_task << " out of range";
      Deliver(emission, component, direct_task, tuple);
      continue;
    }
    switch (target.grouping) {
      case Grouping::kShuffle: {
        if (emission.chained != nullptr) {
          // A chained edge's target is fixed: the task behind the emitter.
          Deliver(emission, component, emission.chained->task->task_index,
                  tuple);
          break;
        }
        uint64_t n =
            shuffle_counters_[source].fetch_add(1, std::memory_order_relaxed);
        Deliver(emission, component, static_cast<int>(n % num_tasks), tuple);
        break;
      }
      case Grouping::kFields: {
        uint64_t h = HashValues(tuple.values(), target.field_indexes);
        Deliver(emission, component,
                static_cast<int>(h % static_cast<uint64_t>(num_tasks)), tuple);
        break;
      }
      case Grouping::kAll:
        for (int t = 0; t < num_tasks; ++t) {
          Deliver(emission, component, t, tuple);
        }
        break;
      case Grouping::kGlobal:
        Deliver(emission, component, 0, tuple);
        break;
      case Grouping::kDirect:
        // Plain Emit does not feed direct subscriptions.
        break;
    }
  }
}

void LocalRuntime::EmitTracked(int component_index, int task_index,
                               uint64_t message_id, int attempt,
                               std::vector<Value> values, MicrosT spout_time,
                               TuplePriority priority, uint64_t* emitted,
                               Outbox* outbox) {
  if (attempt == 0) {
    // Keep a copy for replays, scoped to this spout task.
    replay_->Store(message_id, component_index, task_index, values);
    pending_roots_.fetch_add(1);
  }
  reliability::TreeInfo info;
  info.root_key = RootKey(component_index, task_index, message_id, attempt);
  info.message_id = message_id;
  info.spout_component = component_index;
  info.spout_task = task_index;
  info.attempt = attempt;
  info.created_micros = options_.clock->NowMicros();
  if (tracer_ != nullptr) {
    // Every attempt makes its own sampling decision and — if sampled —
    // opens a root span that the final ack (OnTreeCompleted) closes. The
    // previous attempt's trace was abandoned when its tree expired.
    info.trace_id = tracer_->MaybeStartTrace(info.created_micros);
  }
  // The guard keeps the accumulator nonzero until every root tuple is
  // enqueued; without it the first copy's subtree could complete (hit zero)
  // before the remaining copies are registered.
  uint64_t guard = NextEdgeId();
  acker_->Register(info, guard);
  Tuple tuple(fields_[static_cast<size_t>(component_index)].get(),
              std::move(values), spout_time);
  tuple.set_root_key(info.root_key);
  tuple.set_trace_id(info.trace_id);
  tuple.set_priority(priority);
  uint64_t batch = 0;
  uint64_t dedup_seq = 0;
  Emission emission;
  emission.source_component = component_index;
  emission.outbox = outbox;
  emission.emitted = emitted;
  emission.ack_batch = &batch;
  if (dedup_enabled_) {
    // Replay-stable dedup root: derived from the spout task and message id
    // (not the attempt), so a replayed attempt re-derives the exact same
    // per-emission dedup ids and checkpointed tasks can recognize
    // already-applied tuples, while same-numbered messages of different
    // spouts get disjoint id chains.
    uint64_t d = Splitmix(message_id ^
                          SpoutScope(component_index, task_index));
    emission.dedup_base = d == 0 ? 1 : d;
    emission.dedup_seq = &dedup_seq;
  }
  Route(emission, tuple, /*direct_task=*/-1);
  if (auto done = acker_->Xor(info.root_key, guard ^ batch)) {
    OnTreeCompleted(*done);
  }
}

void LocalRuntime::OnTreeCompleted(const reliability::TreeInfo& info) {
  replay_->Ack(info.message_id, info.spout_component, info.spout_task);
  const ComponentDef& def =
      topology_.components()[static_cast<size_t>(info.spout_component)];
  metrics_.RecordAck(def.name, info.spout_task);
  if (tracer_ != nullptr && info.trace_id != 0) {
    tracer_->CompleteTrace(info.trace_id, options_.clock->NowMicros());
  }
  TaskRuntime& task = tasks_[static_cast<size_t>(info.spout_component)]
                            [static_cast<size_t>(info.spout_task)];
  if (task.events != nullptr) {
    MutexLock lock(task.events->mutex);
    task.events->events.emplace_back(true, info.message_id);
  }
  size_t prev = pending_roots_.fetch_sub(1);
  TMS_DCHECK_GE(prev, size_t{1}) << "pending tree count underflow on ack";
  NotifyPossiblyDone();
}

void LocalRuntime::DrainSpoutEvents(TaskRuntime* task) {
  if (task->events == nullptr) return;
  std::deque<std::pair<bool, uint64_t>> events;
  {
    MutexLock lock(task->events->mutex);
    events.swap(task->events->events);
  }
  for (const auto& [is_ack, message_id] : events) {
    if (is_ack) {
      task->spout->Ack(message_id);
    } else {
      task->spout->Fail(message_id);
    }
  }
}

void LocalRuntime::SpoutLoop(
    ExecutorSlot* slot, const ComponentDef& def,
    std::vector<TaskRuntime*>& my_tasks,
    std::vector<std::unique_ptr<TaskCollector>>& collectors) {
  const bool acking = options_.enable_acking;
  const int component_index = slot->component_index;
  reliability::FaultInjector* injector = options_.fault_injector;
  std::vector<MetricsRegistry::TaskRef> refs;
  refs.reserve(my_tasks.size());
  for (TaskRuntime* task : my_tasks) {
    refs.push_back(metrics_.RefFor(def.name, task->task_index));
  }
  uint64_t seen_epoch = 0;
  while (!stopping_.load()) {
    const uint64_t epoch = action_epoch_.load(std::memory_order_acquire);
    if (epoch != seen_epoch) {
      RunTaskAction(epoch, component_index, my_tasks);
      seen_epoch = epoch;
    }
    bool all_exhausted = true;
    bool progressed = false;
    uint64_t pass_emitted = 0;
    for (size_t i = 0; i < my_tasks.size(); ++i) {
      TaskRuntime* task = my_tasks[i];
      if (acking) {
        DrainSpoutEvents(task);
        auto due = replay_->TakeDue(component_index, task->task_index,
                                    options_.clock->NowMicros());
        for (auto& d : due) {
          metrics_.RecordReplay(def.name, task->task_index);
          uint64_t emitted = 0;
          // Replays re-stamp the component's declared tier: the replay
          // buffer stores values only, so a per-emission priority override
          // (distributed ingress) does not survive a replay.
          EmitTracked(component_index, task->task_index, d.message_id,
                      d.attempt, std::move(d.values),
                      options_.clock->NowMicros(), def.priority, &emitted,
                      collectors[i]->outbox());
          if (emitted > 0) {
            refs[i].RecordEmit(emitted);
            pass_emitted += emitted;
          }
          progressed = true;
        }
      }
      if (task->spout_done) continue;
      all_exhausted = false;
      if (stopping_.load()) break;
      if (injector != nullptr &&
          injector->ShouldCrash(def.name, task->task_index)) {
        // The spout executor dies between NextTuple calls — a consistent
        // boundary (everything already emitted is registered with the
        // acker). The supervisor relaunches this executor with the SAME
        // spout instances: a real spout's read cursor is its committed
        // offset, and re-Opening would rewind it. The relaunched executor
        // gets fresh outboxes, so these are flushed first.
        for (auto& collector : collectors) FlushOutbox(collector->outbox());
        slot->crashed.store(true);
        return;
      }
      collectors[i]->set_current_spout_time(options_.clock->NowMicros());
      bool more = task->spout->NextTuple(collectors[i].get());
      progressed = true;
      uint64_t emitted = collectors[i]->TakeEmitted();
      if (emitted > 0) {
        refs[i].RecordEmit(emitted);
        pass_emitted += emitted;
      }
      if (!more) {
        task->spout_done = true;
        // Hand off everything this task staged before it is counted out;
        // outboxes auto-flush only at the emit_batch threshold.
        FlushOutbox(collectors[i]->outbox());
        live_spout_tasks_.fetch_sub(1);
        NotifyPossiblyDone();
      }
    }
    if (all_exhausted) {
      for (auto& collector : collectors) FlushOutbox(collector->outbox());
      // Exhausted spouts stay alive under acking to deliver Ack/Fail
      // callbacks and re-emit timed-out trees until every tree resolves.
      // Then they wait for their next batch.
      if (!acking || pending_roots_.load() == 0) {
        ParkIdle(seen_epoch, /*is_spout=*/true);
        continue;
      }
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    } else if (pass_emitted == 0) {
      // Idle pass: deliver staged tuples now instead of letting them wait
      // below the auto-flush threshold behind a quiet spout.
      for (auto& collector : collectors) FlushOutbox(collector->outbox());
    }
  }
  for (auto& collector : collectors) FlushOutbox(collector->outbox());
  for (TaskRuntime* task : my_tasks) {
    if (acking) DrainSpoutEvents(task);  // last callbacks before Close
    task->spout->Close();
  }
}

void LocalRuntime::ExecutorLoop(ExecutorSlot* slot) {
  // Publishes this thread's CPU clock to ExecutorCpuTimes while it runs the
  // loop, on every return path.
  struct CpuClockPublication {
    explicit CpuClockPublication(ExecutorSlot* s) : slot(s) {
      clockid_t clock = kNoCpuClock;
      if (pthread_getcpuclockid(pthread_self(), &clock) == 0) {
        slot->cpu_clock.store(clock);
      }
    }
    ~CpuClockPublication() { slot->cpu_clock.store(kNoCpuClock); }
    ExecutorSlot* slot;
  } cpu_clock_publication(slot);
  const int component_index = slot->component_index;
  const int executor_index = slot->executor_index;
  const ComponentDef& def =
      topology_.components()[static_cast<size_t>(component_index)];
  // Tasks owned by this executor: task_index % executors == executor_index.
  std::vector<TaskRuntime*> my_tasks;
  std::vector<std::unique_ptr<TaskCollector>> collectors;
  for (auto& task : tasks_[static_cast<size_t>(component_index)]) {
    if (task.task_index % def.num_executors == executor_index) {
      my_tasks.push_back(&task);
      collectors.push_back(std::make_unique<TaskCollector>(
          this, component_index, task.task_index, def.is_spout));
    }
  }

  // The chain this executor runs, head first: each chained component's
  // task i belongs to the executor of the head's task i.
  std::vector<int> members{component_index};
  std::vector<std::vector<TaskRuntime*>> member_tasks{my_tasks};
  for (int c = chain_next_[static_cast<size_t>(component_index)]; c >= 0;
       c = chain_next_[static_cast<size_t>(c)]) {
    members.push_back(c);
    member_tasks.emplace_back();
    for (TaskRuntime* task : my_tasks) {
      member_tasks.back().push_back(&tasks_[static_cast<size_t>(c)][
          static_cast<size_t>(task->task_index)]);
    }
  }

  for (size_t m = 0; m < members.size(); ++m) {
    const ComponentDef& member =
        topology_.components()[static_cast<size_t>(members[m])];
    TaskContext context;
    context.component = member.name;
    context.num_tasks = member.num_tasks;
    for (TaskRuntime* task : member_tasks[m]) {
      if (!task->needs_init) continue;
      context.task_index = task->task_index;
      if (task->spout != nullptr) {
        // Spouts are never re-Opened after a crash: the supervisor keeps the
        // original instance (its emission cursor is the "committed offset"),
        // so Open must run exactly once.
        task->spout->Open(context);
      } else {
        task->bolt->Prepare(context);
        task->snapshottable = dynamic_cast<Snapshottable*>(task->bolt.get());
        if (coordinator_ != nullptr && task->ckpt_slot >= 0) {
          RestoreTask(task, member);
        }
      }
      task->needs_init = false;
    }
  }

  if (def.is_spout) {
    SpoutLoop(slot, def, my_tasks, collectors);
    return;
  }

  reliability::FaultInjector* injector = options_.fault_injector;
  std::vector<MetricsRegistry::TaskRef> refs;
  refs.reserve(my_tasks.size());
  for (TaskRuntime* task : my_tasks) {
    refs.push_back(metrics_.RefFor(def.name, task->task_index));
  }
  // Chain links, `chain_length` per owned task: link k of task i runs
  // member k + 1's task i and is fed by the collector before it. The links'
  // collectors follow the owned tasks' in `collectors`, at
  // collectors[n + i * chain_length + k].
  const size_t n = my_tasks.size();
  const size_t chain_length = members.size() - 1;
  bool chain_crashed = false;
  std::vector<ChainedTask> links(n * chain_length);
  for (size_t i = 0; i < n; ++i) {
    TaskCollector* upstream = collectors[i].get();
    for (size_t k = 0; k < chain_length; ++k) {
      TaskRuntime* task = member_tasks[k + 1][i];
      collectors.push_back(std::make_unique<TaskCollector>(
          this, members[k + 1], task->task_index, /*is_spout=*/false));
      ChainedTask& link = links[i * chain_length + k];
      link.task = task;
      link.collector = collectors.back().get();
      link.ref = metrics_.RefFor(
          topology_.components()[static_cast<size_t>(members[k + 1])].name,
          task->task_index);
      link.crashed = &chain_crashed;
      upstream->set_chained(&link);
      upstream = link.collector;
    }
  }
  // Settles `count` tuples of a drained batch (see `in_flight_`): called
  // once per batch, after the outboxes the batch filled were flushed.
  auto settle = [this](size_t count) {
    int64_t prev = in_flight_.fetch_sub(static_cast<int64_t>(count));
    TMS_DCHECK_GE(prev, static_cast<int64_t>(count))
        << "in-flight count went negative settling a batch";
    NotifyPossiblyDone();
  };
  // The executor dies with `batch[j]` of owned task `i` in hand: exactly
  // that tuple is lost (its tree will time out and replay under acking) and
  // the thread exits without Cleanup, like a killed Storm worker. The
  // supervisor will restart this executor with fresh bolt instances.
  // Emissions of the executions that completed before the crash are
  // delivered, and the un-executed remainder of the drained batch goes back
  // to the front of the queue — batching must not widen the failure beyond
  // what per-tuple hand-off lost. The relaunched executor builds fresh
  // outboxes, so these are flushed first. The executed prefix and the lost
  // tuple settle; the requeued remainder stays counted.
  std::vector<Tuple> batch;
  auto die = [&](size_t i, size_t j) {
    for (auto& collector : collectors) FlushOutbox(collector->outbox());
    my_tasks[i]->input->Requeue(&batch, j + 1);
    settle(j + 1);
    slot->crashed.store(true);
  };
  // Bolt executor: drain the owned tasks' queues round-robin, moving up to
  // max_batch tuples out of a queue per lock acquisition (pseudo-parallel
  // execution of co-scheduled tasks, one not_full wake per drained block).
  batch.reserve(options_.max_batch);
  uint64_t seen_epoch = 0;
  while (true) {
    const uint64_t epoch = action_epoch_.load(std::memory_order_acquire);
    if (epoch != seen_epoch) {
      for (size_t m = 0; m < members.size(); ++m) {
        RunTaskAction(epoch, members[m], member_tasks[m]);
      }
      seen_epoch = epoch;
    }
    bool any = false;
    for (size_t i = 0; i < my_tasks.size(); ++i) {
      TaskRuntime* task = my_tasks[i];
      batch.clear();
      task->input->Drain(options_.max_batch, &batch);
      if (batch.empty()) continue;
      any = true;
      for (size_t j = 0; j < batch.size(); ++j) {
        Tuple& tuple = batch[j];
        if (injector != nullptr &&
            injector->ShouldCrash(def.name, task->task_index)) {
          die(i, j);
          return;
        }
        if (task->ledger != nullptr && tuple.dedup_id() != 0 &&
            task->ledger->Contains(tuple.dedup_id())) {
          // Replayed duplicate of a tuple whose effect is already inside
          // this task's checkpointed state: suppress the re-execution but
          // still settle its tree edge, otherwise the replayed attempt
          // could never complete. The ack is deferred with the rest of the
          // task's pending edges so it only reaches the acker once the
          // state that absorbed the original execution is durable.
          metrics_.RecordDedup(def.name, task->task_index);
          if (acker_ != nullptr && tuple.root_key() != 0) {
            task->pending_acks[tuple.root_key()] ^= tuple.edge_id();
          }
          continue;  // settles with the batch
        }
        collectors[i]->BeginExecute(tuple);
        MicrosT start = options_.clock->NowMicros();
        task->bolt->Execute(tuple, collectors[i].get());
        MicrosT end = options_.clock->NowMicros();
        if (chain_crashed) {
          die(i, j);  // a fault killed a chained member mid-execute
          return;
        }
        RecordExecution(tuple, *task, collectors[i].get(), &refs[i], start,
                        end, /*queued=*/true);
        if (acker_ != nullptr && tuple.root_key() != 0) {
          // One batched acker update per execution: the consumed input edge
          // plus every edge emitted while executing it.
          uint64_t acks = tuple.edge_id() ^ collectors[i]->TakeAckBatch();
          if (task->ckpt_slot >= 0) {
            // Checkpoint-aligned acking: a checkpointed task's acks flush
            // only after the state that absorbed the tuple persists. If the
            // task crashes first, the unflushed edges keep the tree alive,
            // it times out, and replay re-executes against the rolled-back
            // state — effectively-once end to end.
            task->pending_acks[tuple.root_key()] ^= acks;
          } else if (auto done = acker_->Xor(tuple.root_key(), acks)) {
            OnTreeCompleted(*done);
          }
        }
        if (task->ledger != nullptr && tuple.dedup_id() != 0) {
          task->ledger->Insert(tuple.dedup_id());
        }
      }
      FlushOutbox(collectors[i]->outbox());
      for (size_t k = 0; k < chain_length; ++k) {
        FlushOutbox(collectors[n + i * chain_length + k]->outbox());
      }
      settle(batch.size());
      if (coordinator_ != nullptr && task->ckpt_slot >= 0) {
        MaybeCheckpoint(task, def, /*force=*/false);
      }
    }
    if (!any) {
      for (auto& collector : collectors) FlushOutbox(collector->outbox());
      if (coordinator_ != nullptr) {
        // Idle with deferred acks: force a checkpoint so the acks flush and
        // the topology can drain — otherwise AwaitCompletion would livelock
        // waiting on trees whose last edges sit in pending_acks until the
        // next interval tick.
        for (TaskRuntime* task : my_tasks) {
          if (task->ckpt_slot >= 0 && !task->pending_acks.empty()) {
            MaybeCheckpoint(task, def, /*force=*/true);
          }
        }
      }
      if (stopping_.load()) break;
      if (idle_.load()) {
        ParkIdle(seen_epoch, /*is_spout=*/false);
        continue;
      }
      // Park briefly on the first owned queue.
      if (my_tasks.empty()) break;
      my_tasks[0]->input->Park(std::chrono::milliseconds(1));
    }
  }
  for (auto& collector : collectors) FlushOutbox(collector->outbox());
  for (const auto& tasks : member_tasks) {
    for (TaskRuntime* task : tasks) task->bolt->Cleanup();
  }
}

void LocalRuntime::SupervisorLoop() {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(std::min<MicrosT>(
        options_.supervisor_interval_micros, 50'000)));

    // Restart executors killed by injected crashes (Storm's supervisor
    // relaunching a dead worker). The crashed thread has already returned,
    // so its tasks' bolts are untouched by anyone else; replace them with
    // fresh instances — the relaunched executor restores checkpointed tasks
    // from their latest durable snapshot, everything else starts clean.
    for (auto& slot : executors_) {
      if (!slot->crashed.load() || stopping_.load()) continue;
      if (slot->thread.joinable()) slot->thread.join();
      // The executor's chained tasks die with it.
      for (int c = slot->component_index; c >= 0;
           c = chain_next_[static_cast<size_t>(c)]) {
        const ComponentDef& def = topology_.components()[static_cast<size_t>(c)];
        for (auto& task : tasks_[static_cast<size_t>(c)]) {
          if (task.bolt != nullptr &&
              task.task_index % def.num_executors == slot->executor_index) {
            task.bolt = def.bolt_factory();
            task.snapshottable = nullptr;
            task.needs_init = true;  // Prepare + restore on relaunch
          }
          // Spout tasks keep their instances and are not re-initialized;
          // see the crash point in SpoutLoop.
        }
      }
      slot->crashed.store(false);
      executor_restarts_.fetch_add(1);
      ExecutorSlot* raw = slot.get();
      slot->thread = Thread([this, raw] { ExecutorLoop(raw); });
    }

    // Fail tuple trees that outlived the ack timeout: schedule a replay, or
    // — once the replay budget is spent — permanently fail the message.
    if (acker_ != nullptr) {
      MicrosT now = options_.clock->NowMicros();
      for (const reliability::TreeInfo& info :
           acker_->ExpireOlderThan(now - options_.ack_timeout_micros)) {
        const ComponentDef& def =
            topology_.components()[static_cast<size_t>(info.spout_component)];
        metrics_.RecordFail(def.name, info.spout_task);
        // Whether the tree replays or permanently fails, this attempt's
        // trace is over; a replayed attempt starts a fresh one.
        if (tracer_ != nullptr && info.trace_id != 0) {
          tracer_->AbandonTrace(info.trace_id);
        }
        if (!replay_->Fail(info.message_id, info.spout_component,
                           info.spout_task, now)) {
          TaskRuntime& task =
              tasks_[static_cast<size_t>(info.spout_component)]
                    [static_cast<size_t>(info.spout_task)];
          if (task.events != nullptr) {
            MutexLock lock(task.events->mutex);
            task.events->events.emplace_back(false, info.message_id);
          }
          size_t prev = pending_roots_.fetch_sub(1);
          TMS_DCHECK_GE(prev, size_t{1})
              << "pending tree count underflow on permanent fail";
          NotifyPossiblyDone();
        }
      }
    }
  }
}

Status LocalRuntime::SerializeTask(TaskRuntime* task, std::string* out) {
  // Copy-on-snapshot: serialize on the executor thread at a batch boundary
  // (the task's state is quiescent between executions); the caller hands
  // the bytes to the background persister.
  std::string bolt_state;
  if (task->snapshottable != nullptr) {
    Status s = task->snapshottable->SnapshotState(&bolt_state);
    if (!s.ok()) return s;
  }
  out->clear();
  ByteWriter writer(out);
  writer.PutU32(kTaskSnapshotMagic);
  writer.PutU32(kTaskSnapshotVersion);
  writer.PutU8(task->ledger != nullptr ? 1 : 0);
  if (task->ledger != nullptr) task->ledger->Serialize(&writer);
  writer.PutString(bolt_state);
  return Status::OK();
}

void LocalRuntime::MaybeCheckpoint(TaskRuntime* task, const ComponentDef& def,
                                   bool force) {
  MicrosT now = options_.clock->NowMicros();
  if (force ? !coordinator_->CanSubmit(task->ckpt_slot)
            : !coordinator_->Due(task->ckpt_slot, now)) {
    return;
  }
  std::string bytes;
  Status s = SerializeTask(task, &bytes);
  if (!s.ok()) {
    // Keep the deferred acks: the covered executions are not durable, so
    // their trees must stay open until a later snapshot succeeds.
    INSIGHT_LOG(Warning) << "snapshot of " << def.name << "/"
                         << task->task_index << " failed: " << s.message();
    return;
  }
  // Move the accumulated deferred acks into the completion closure: exactly
  // one owner at any time. On durable persist they flush to the acker; on a
  // failed persist they are dropped, the covered trees time out, and replay
  // re-executes them against whatever state actually is durable.
  auto acks = std::make_shared<std::unordered_map<uint64_t, uint64_t>>(
      std::move(task->pending_acks));
  task->pending_acks.clear();
  std::string component = def.name;
  int task_index = task->task_index;
  coordinator_->Submit(
      task->ckpt_slot, std::move(bytes),
      [this, acks, component, task_index](uint64_t epoch,
                                          const Status& status) {
        if (!status.ok()) {
          INSIGHT_LOG(Warning)
              << "checkpoint epoch " << epoch << " of " << component << "/"
              << task_index << " failed (" << status.message()
              << "); dropping " << acks->size()
              << " deferred ack deltas so the trees replay";
          return;
        }
        metrics_.RecordCheckpoint(component, task_index);
        if (acker_ == nullptr) return;
        for (const auto& [root, delta] : *acks) {
          if (auto done = acker_->Xor(root, delta)) OnTreeCompleted(*done);
        }
      });
}

Status LocalRuntime::ApplyTaskSnapshot(TaskRuntime* task,
                                       const std::string& bytes) {
  // Nothing from the previous incarnation survives into the restore: the
  // suppression set and deferred acks roll back exactly as far as the state.
  // On any error the ledger is left cleared and the bolt is in its clean
  // freshly-prepared state (RestoreState's contract), so the caller can
  // safely fall back to clean.
  task->pending_acks.clear();
  if (task->ledger != nullptr) task->ledger->Clear();
  auto corrupt = [&](const char* why) {
    if (task->ledger != nullptr) task->ledger->Clear();
    return Status::ParseError(why);
  };
  ByteReader reader(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint8_t has_ledger = 0;
  if (!reader.GetU32(&magic) || magic != kTaskSnapshotMagic) {
    return corrupt("bad snapshot magic");
  }
  if (!reader.GetU32(&version) || version != kTaskSnapshotVersion) {
    return corrupt("unsupported snapshot version");
  }
  if (!reader.GetU8(&has_ledger)) {
    return corrupt("truncated snapshot header");
  }
  if (has_ledger != 0) {
    if (task->ledger == nullptr) {
      return corrupt("snapshot carries a dedup ledger but dedup is disabled");
    }
    if (!task->ledger->Deserialize(&reader)) {
      return corrupt("corrupt dedup ledger");
    }
  }
  std::string bolt_state;
  if (!reader.GetString(&bolt_state)) {
    return corrupt("truncated bolt state");
  }
  if (task->snapshottable != nullptr) {
    Status s = task->snapshottable->RestoreState(bolt_state);
    if (!s.ok()) {
      if (task->ledger != nullptr) task->ledger->Clear();
      return s;
    }
  }
  return Status::OK();
}

void LocalRuntime::RestoreTask(TaskRuntime* task, const ComponentDef& def) {
  task->pending_acks.clear();
  if (task->ledger != nullptr) task->ledger->Clear();
  auto fail = [&](const std::string& why) {
    if (task->ledger != nullptr) task->ledger->Clear();
    metrics_.RecordRestoreFailure(def.name, task->task_index);
    INSIGHT_LOG(Warning) << "restore of " << def.name << "/"
                         << task->task_index << " failed (" << why
                         << "); restarting from clean state";
  };
  Result<reliability::StateStore::Snapshot> loaded =
      coordinator_->BarrierAndLoad(task->ckpt_slot);
  if (!loaded.ok()) {
    // No durable snapshot yet is the normal first launch, not a failure.
    if (loaded.status().code() != StatusCode::kNotFound) {
      fail(loaded.status().message());
    }
    return;
  }
  Status applied = ApplyTaskSnapshot(task, loaded->bytes);
  if (!applied.ok()) {
    fail(applied.message());
    return;
  }
  metrics_.RecordRestore(def.name, task->task_index);
}

void LocalRuntime::FailDiscardedTree(const reliability::TreeInfo& info) {
  if (replay_ != nullptr) {
    replay_->Discard(info.message_id, info.spout_component, info.spout_task);
  }
  const ComponentDef& def =
      topology_.components()[static_cast<size_t>(info.spout_component)];
  metrics_.RecordFail(def.name, info.spout_task);
  if (tracer_ != nullptr && info.trace_id != 0) {
    tracer_->AbandonTrace(info.trace_id);
  }
  TaskRuntime& task = tasks_[static_cast<size_t>(info.spout_component)]
                            [static_cast<size_t>(info.spout_task)];
  if (task.events != nullptr) {
    MutexLock lock(task.events->mutex);
    // TMS_ANALYZE_EXEMPT(event deque is bounded by pending root trees and
    // libstdc++ recycles its chunks as the spout drains notifications)
    task.events->events.emplace_back(false, info.message_id);
  }
  size_t prev = pending_roots_.fetch_sub(1);
  TMS_DCHECK_GE(prev, size_t{1})
      << "pending tree count underflow on discarded tree";
  NotifyPossiblyDone();
}

double LocalRuntime::QueueOccupancy(const std::string& component, int task) {
  int component_index = -1;
  for (size_t c = 0; c < topology_.components().size(); ++c) {
    if (topology_.components()[c].name == component) {
      component_index = static_cast<int>(c);
      break;
    }
  }
  if (component_index < 0) return 0.0;
  auto& component_tasks = tasks_[static_cast<size_t>(component_index)];
  if (task < 0 || static_cast<size_t>(task) >= component_tasks.size()) {
    return 0.0;
  }
  const TaskQueue* queue =
      component_tasks[static_cast<size_t>(task)].input.get();
  return queue == nullptr ? 0.0 : queue->Occupancy();
}

void LocalRuntime::MonitorLoop() {
  MicrosT interval = options_.monitor_interval_micros;
  MicrosT accumulated = 0;
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min<MicrosT>(interval, 50'000)));
    accumulated += std::min<MicrosT>(interval, 50'000);
    if (accumulated >= interval) {
      accumulated = 0;
      metrics_.TakeWindowSnapshot(options_.clock->NowMicros());
    }
  }
}

std::vector<LocalRuntime::ExecutorCpu> LocalRuntime::ExecutorCpuTimes() const {
  std::vector<ExecutorCpu> out;
  out.reserve(executors_.size());
  for (const auto& slot : executors_) {
    ExecutorCpu cpu;
    cpu.component =
        topology_.components()[static_cast<size_t>(slot->component_index)].name;
    cpu.executor_index = slot->executor_index;
    const clockid_t clock = slot->cpu_clock.load();
    timespec ts{};
    // Fails (and reads 0) if the thread exited since the load.
    if (clock != kNoCpuClock && clock_gettime(clock, &ts) == 0) {
      cpu.cpu_seconds = static_cast<double>(ts.tv_sec) +
                        static_cast<double>(ts.tv_nsec) * 1e-9;
    }
    out.push_back(std::move(cpu));
  }
  return out;
}

std::vector<LocalRuntime::ExecutorUtilisation> LocalRuntime::Utilisation(
    const std::vector<ExecutorCpu>& before,
    const std::vector<ExecutorCpu>& after, double wall_seconds) {
  std::vector<ExecutorUtilisation> out;
  out.reserve(after.size());
  for (size_t e = 0; e < after.size(); ++e) {
    double used = after[e].cpu_seconds;
    // A relaunched thread's clock restarts below the earlier reading.
    if (e < before.size() && before[e].cpu_seconds <= used) {
      used -= before[e].cpu_seconds;
    }
    out.push_back({after[e].component, after[e].executor_index,
                   wall_seconds > 0 ? used / wall_seconds : 0.0});
  }
  return out;
}

size_t LocalRuntime::max_queue_occupancy() const {
  size_t peak = 0;
  for (const auto& component_tasks : tasks_) {
    for (const auto& task : component_tasks) {
      if (task.input != nullptr) peak = std::max(peak, task.input->peak_size());
    }
  }
  return peak;
}

}  // namespace dsps
}  // namespace insight
