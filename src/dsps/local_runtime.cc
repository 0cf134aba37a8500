#include "dsps/local_runtime.h"

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
        declared_priority_(
            runtime->topology_.components()[static_cast<size_t>(
                                                component_index)]
                .priority),
        current_priority_(declared_priority_) {
    outbox_.per_task.resize(static_cast<size_t>(runtime->total_tasks_));
    const overload::Options& opts = runtime->options_.overload;
    // kHigh components keep the base flush threshold: growing their blocks
    // would trade away exactly the latency the tier exists to protect.
    if (opts.enable_adaptive_batch &&
        declared_priority_ != TuplePriority::kHigh) {
      adaptive_ = std::make_unique<overload::AdaptiveBatch>(
          runtime->options_.emit_batch, opts.adaptive_batch_max);
      outbox_.adaptive = adaptive_.get();
    }
  }

  void Emit(std::vector<Value> values) override {
    Tuple tuple(runtime_->fields_[static_cast<size_t>(component_index_)],
                std::move(values), current_spout_time_);
    tuple.set_priority(current_priority_);
    uint64_t* batch = nullptr;
    uint64_t* dedup_seq = nullptr;
    if (current_root_key_ != 0) {
      tuple.set_root_key(current_root_key_);
      batch = &ack_batch_;
      if (current_dedup_id_ != 0) dedup_seq = &dedup_seq_;
    }
    MaybeTraceSpoutEmit(&tuple);
    runtime_->Route(component_index_, tuple, /*direct_task=*/-1, &emitted_,
                    batch, current_dedup_id_, dedup_seq, &outbox_);
  }

  void EmitDirect(int target_task, std::vector<Value> values) override {
    Tuple tuple(runtime_->fields_[static_cast<size_t>(component_index_)],
                std::move(values), current_spout_time_);
    tuple.set_priority(current_priority_);
    uint64_t* batch = nullptr;
    uint64_t* dedup_seq = nullptr;
    if (current_root_key_ != 0) {
      tuple.set_root_key(current_root_key_);
      batch = &ack_batch_;
      if (current_dedup_id_ != 0) dedup_seq = &dedup_seq_;
    }
    MaybeTraceSpoutEmit(&tuple);
    runtime_->Route(component_index_, tuple, target_task, &emitted_, batch,
                    current_dedup_id_, dedup_seq, &outbox_);
  }

  void EmitRooted(uint64_t message_id, std::vector<Value> values) override {
    if (is_spout_ && runtime_->options_.enable_acking) {
      runtime_->EmitTracked(component_index_, task_index_, message_id,
                            /*attempt=*/0, std::move(values),
                            current_spout_time_, current_priority_, &emitted_,
                            &outbox_);
      return;
    }
    Emit(std::move(values));
  }

  void EmitPrioritized(TuplePriority priority,
                       std::vector<Value> values) override {
    TuplePriority saved = current_priority_;
    current_priority_ = priority;
    Emit(std::move(values));
    current_priority_ = saved;
  }

  void EmitRootedPrioritized(TuplePriority priority, uint64_t message_id,
                             std::vector<Value> values) override {
    TuplePriority saved = current_priority_;
    current_priority_ = priority;
    EmitRooted(message_id, std::move(values));
    current_priority_ = saved;
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
  }

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
  /// runtime samples with an open root that the final ack closes.
  void MaybeTraceSpoutEmit(Tuple* tuple) {
    if (is_spout_ && runtime_->tracer_ != nullptr) {
      current_trace_id_ = runtime_->tracer_->MaybeStartTrace(
          runtime_->options_.clock->NowMicros(), /*open_root=*/false);
    }
    tuple->set_trace_id(current_trace_id_);
  }

  LocalRuntime* runtime_;
  int component_index_;
  int task_index_;
  bool is_spout_;
  /// The component's declared shedding tier: the default for spout
  /// emissions; bolts override per input in BeginExecute.
  TuplePriority declared_priority_;
  TuplePriority current_priority_;
  /// Adaptive flush threshold; null unless adaptive batching is enabled.
  std::unique_ptr<overload::AdaptiveBatch> adaptive_;
  MicrosT current_spout_time_ = 0;
  uint64_t current_root_key_ = 0;
  uint64_t current_dedup_id_ = 0;
  uint64_t current_trace_id_ = 0;
  uint64_t dedup_seq_ = 0;
  uint64_t ack_batch_ = 0;
  uint64_t emitted_ = 0;
  Outbox outbox_;
};

LocalRuntime::LocalRuntime(Topology topology, Options options)
    : topology_(std::move(topology)), options_(options) {
  if (options_.enable_acking) {
    acker_ = std::make_unique<reliability::Acker>();
    reliability::ReplayPolicy policy;
    policy.max_replays = options_.max_replays;
    policy.backoff_base_micros = options_.replay_backoff_micros;
    policy.backoff_factor = options_.replay_backoff_factor;
    replay_ = std::make_unique<reliability::ReplayBuffer>(policy);
  }
  if (options_.enable_tracing) {
    observability::Tracer::Options topts;
    topts.sample_rate = options_.trace_sample_rate;
    topts.max_spans = options_.trace_max_spans;
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
    fields_[c] = std::make_shared<const Fields>(def.output_fields);
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
        task.input = std::make_unique<TaskQueue>();
      }
      tasks_[c].push_back(std::move(task));
    }
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

  // Elastic scheduling: per-task inflow counters, migration phase gates and
  // straggler redirects. Allocated only when migration is enabled — the
  // drain and stage hot paths otherwise test a single bool.
  if (options_.enable_migration) {
    elastic_enabled_ = true;
    task_inbound_ =
        std::vector<std::atomic<int64_t>>(static_cast<size_t>(total_tasks_));
    migration_phase_ =
        std::vector<std::atomic<uint8_t>>(static_cast<size_t>(total_tasks_));
    forward_of_ =
        std::vector<std::atomic<int32_t>>(static_cast<size_t>(total_tasks_));
    for (auto& fwd : forward_of_) fwd.store(-1, std::memory_order_relaxed);
  }

  // Overload protection: per-queue admission gates plus cached metrics
  // handles for shed attribution. All of it exists only when at least one
  // feature is on — otherwise the emit path never touches any of this.
  if (options_.overload.any_enabled()) {
    credit_flow_ = options_.overload.enable_credit_flow;
    shedding_ = options_.overload.enable_load_shedding;
    gates_.resize(static_cast<size_t>(total_tasks_));
    overload_refs_.resize(static_cast<size_t>(total_tasks_));
    for (size_t c = 0; c < components.size(); ++c) {
      for (size_t t = 0; t < tasks_[c].size(); ++t) {
        size_t gid = static_cast<size_t>(task_base_[c]) + t;
        if (queue_of_[gid] == nullptr) continue;  // spout task
        gates_[gid] =
            std::make_unique<overload::QueueGate>(options_.queue_capacity);
        overload_refs_[gid] =
            metrics_.RefFor(components[c].name, static_cast<int>(t));
      }
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
          task.ledger = std::make_unique<reliability::DedupLedger>(
              options_.dedup_ledger_capacity);
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

Status LocalRuntime::StartLongLived() {
  if (started_.load()) {
    return Status::FailedPrecondition("runtime already started");
  }
  long_lived_ = true;
  return Start();
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
  if (!long_lived_) {
    return Status::FailedPrecondition("Feed needs StartLongLived()");
  }
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
  // batches, or on their first task's queue.
  {
    MutexLock lock(done_mutex_);
    idle_cv_.NotifyAll();
  }
  for (auto& task : tasks_[static_cast<size_t>(component_index)]) {
    if (task.input == nullptr) continue;
    MutexLock lock(task.input->mutex);
    task.input->not_empty.NotifyAll();
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
  {
    MutexLock lock(done_mutex_);
    while (!(stopping_.load() ||
             (live_spout_tasks_.load() == 0 && in_flight_.load() == 0 &&
              pending_roots_.load() == 0))) {
      done_cv_.Wait(done_mutex_);
    }
  }
  // A naturally drained topology is quiescent: with no live spout task, no
  // pending tree, and no in-flight tuple there is no source of new work, so
  // the counts must still be exactly zero here.
  if (!stopping_.load()) {
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
  // The notify must happen while holding the queue mutex: a waiter that
  // checked `stopping_` just before we set it is still between its predicate
  // and the wait — notifying without the lock would be lost and the waiter
  // would block forever (backpressure deadlock on Stop).
  for (auto& component_tasks : tasks_) {
    for (auto& task : component_tasks) {
      if (task.input != nullptr) {
        MutexLock lock(task.input->mutex);
        task.input->not_empty.NotifyAll();
        task.input->not_full.NotifyAll();
      }
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
  for (size_t c = 0; c < tasks_.size(); ++c) {
    for (auto& task : tasks_[c]) {
      if (task.input == nullptr) continue;
      int64_t dropped = 0;
      {
        MutexLock lock(task.input->mutex);
        dropped = static_cast<int64_t>(task.input->queue.size());
        task.input->queue.clear();
      }
      if (dropped > 0) {
        TrackInbound(static_cast<size_t>(task_base_[c] + task.task_index),
                     -dropped);
        abandoned += dropped;
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
  // Counted in flight from the moment it is staged, so the completion
  // predicate can never observe a quiet topology while tuples sit in an
  // outbox.
  in_flight_.fetch_add(1);
  TrackInbound(gid, 1);
  ++outbox->staged;
  size_t threshold = outbox->adaptive != nullptr ? outbox->adaptive->threshold()
                                                 : options_.emit_batch;
  if (outbox->staged >= threshold) {
    FlushOutbox(outbox);
    // Credit mode: a producer that outran its consumers far enough parks in
    // bounded slices until a flush makes progress, so the outbox (and the
    // in-flight count) stays bounded without blocking-on-full semantics.
    if (credit_flow_ &&
        outbox->staged >= options_.overload.max_deferred_tuples) {
      StallForCredits(outbox);
    }
  }
}

void LocalRuntime::FlushOutbox(Outbox* outbox) {
  if (outbox->staged == 0) return;
  bool dropped = false;
  size_t handed_off = 0;  // enqueued + dropped, to balance against staged
  size_t kept = 0;        // left staged awaiting credits (credit mode only)
  size_t write = 0;       // compaction cursor over the dirty list
  double worst_occupancy = 0.0;
  for (size_t read = 0; read < outbox->dirty.size(); ++read) {
    uint32_t gid = outbox->dirty[read];
    std::vector<Tuple>& block = outbox->per_task[gid];
    // Dirty entries are recorded exactly at a block's empty->nonempty
    // transition and cleared together with the blocks, so each entry is
    // unique and its block nonempty; an empty block here means the dirty
    // list and the staging buffers disagree. (A deferred block stays dirty
    // and nonempty, preserving the invariant across flushes.)
    TMS_DCHECK(!block.empty()) << "duplicate dirty entry for task " << gid;
    if (block.empty()) continue;
    TaskQueue* queue = queue_of_[gid];
    overload::QueueGate* gate = gates_.empty() ? nullptr : gates_[gid].get();
    if (gate != nullptr && options_.overload.enable_load_shedding &&
        !stopping_.load()) {
      // Staging-time shed decisions go stale while a block waits for
      // credits; re-check against current occupancy before admitting it.
      size_t shed = ShedStaleTuples(&block, gate, gid);
      if (shed > 0) {
        handed_off += shed;
        dropped = true;  // in-flight count moved: re-check completion
        if (block.empty()) continue;
      }
    }
    const size_t n = block.size();
    if (stopping_.load()) {  // drop on shutdown
      int64_t prev = in_flight_.fetch_sub(static_cast<int64_t>(n));
      TMS_DCHECK_GE(prev, static_cast<int64_t>(n))
          << "in-flight count went negative dropping a block";
      TrackInbound(gid, -static_cast<int64_t>(n));
      handed_off += n;
      block.clear();
      dropped = true;
      continue;
    }
    if (credit_flow_) {
      // Credit admission replaces the blocking wait: no credits means the
      // block simply stays staged — this producer keeps serving its other
      // targets and retries at its next flush point. A deferred block keeps
      // accumulating emissions, so it can outgrow the whole queue capacity;
      // admission must therefore accept a prefix, or a block larger than the
      // remaining credits could never be admitted and the producer would
      // deadlock. `want` strictly decreases per retry, so this terminates.
      size_t take = 0;
      size_t want = n;
      while (want > 0) {
        if (gate->TryAcquire(want)) {
          take = want;
          break;
        }
        int64_t free = gate->capacity() - gate->admitted();
        size_t next =
            free > 0 ? std::min(static_cast<size_t>(free), n) : size_t{0};
        if (next >= want) next = want - 1;  // racing admits: force progress
        want = next;
      }
      if (take == 0) {
        outbox->dirty[write++] = gid;
        kept += n;
        worst_occupancy = 1.0;
        continue;
      }
      MutexLock lock(queue->mutex);
      if (stopping_.load()) {  // raced with Stop: drop, credits back
        gate->Release(take);
        int64_t prev = in_flight_.fetch_sub(static_cast<int64_t>(n));
        TMS_DCHECK_GE(prev, static_cast<int64_t>(n))
            << "in-flight count went negative dropping a block";
        TrackInbound(gid, -static_cast<int64_t>(n));
        handed_off += n;
        block.clear();
        dropped = true;
        continue;
      }
      handed_off += take;
      if (options_.overload.enable_load_shedding) {
        for (size_t k = 0; k < take; ++k) {
          if (block[k].priority() == TuplePriority::kHigh) {
            ++queue->high_count;
          }
        }
      }
      for (size_t k = 0; k < take; ++k) {
        // TMS_ANALYZE_EXEMPT(deque chunk churn: libstdc++ recycles chunks
        // as the consumer pops, and the queue is bounded by queue_capacity)
        queue->queue.push_back(std::move(block[k]));
      }
      if (take == n) {
        block.clear();
      } else {
        // Partial admission: the unadmitted suffix stays staged (and dirty)
        // in FIFO position for the next flush.
        block.erase(block.begin(),
                    block.begin() + static_cast<ptrdiff_t>(take));
        outbox->dirty[write++] = gid;
        kept += n - take;
        worst_occupancy = 1.0;
      }
      size_t sz = queue->queue.size();
      // Exact admission: credit mode can never overshoot capacity.
      TMS_CHECK_LE(sz, options_.queue_capacity)
          << "credit-admitted queue overshot its capacity";
      if (sz > queue->peak_size.load(std::memory_order_relaxed)) {
        queue->peak_size.store(sz, std::memory_order_relaxed);
      }
      queue->not_empty.NotifyOne();
      if (gate->Occupancy() > worst_occupancy) {
        worst_occupancy = gate->Occupancy();
      }
      continue;
    }
    handed_off += n;
    MutexLock lock(queue->mutex);
    while (!stopping_.load() &&
           queue->queue.size() >= options_.queue_capacity) {
      queue->not_full.Wait(queue->mutex);
    }
    if (stopping_.load()) {  // drop on shutdown
      int64_t prev = in_flight_.fetch_sub(static_cast<int64_t>(n));
      TMS_DCHECK_GE(prev, static_cast<int64_t>(n))
          << "in-flight count went negative dropping a block";
      TrackInbound(gid, -static_cast<int64_t>(n));
      block.clear();
      dropped = true;
      continue;
    }
    if (options_.overload.enable_load_shedding) {
      for (const Tuple& t : block) {
        if (t.priority() == TuplePriority::kHigh) ++queue->high_count;
      }
    }
    // TMS_ANALYZE_EXEMPT(deque chunk churn: libstdc++ recycles chunks as the
    // consumer pops, and the queue is bounded by Options::queue_capacity)
    for (Tuple& t : block) queue->queue.push_back(std::move(t));
    block.clear();  // keeps capacity for the next batch
    size_t sz = queue->queue.size();
    // Backpressure overshoot bound: this producer observed size < capacity
    // under the lock before appending its whole block, so occupancy exceeds
    // capacity by strictly fewer than the block's n tuples — at most one
    // block per producer, never more.
    TMS_CHECK_LT(sz, options_.queue_capacity + n)
        << "queue overshot capacity by a full flush block";
    if (sz > queue->peak_size.load(std::memory_order_relaxed)) {
      queue->peak_size.store(sz, std::memory_order_relaxed);
    }
    queue->not_empty.NotifyOne();
    if (gate != nullptr) {
      gate->ForceAcquire(n);
      if (gate->Occupancy() > worst_occupancy) {
        worst_occupancy = gate->Occupancy();
      }
    }
  }
  // FIFO hand-off is per-block: everything staged leaves the outbox in this
  // flush — enqueued in staging order or dropped on shutdown — except blocks
  // deferred for credits, which stay staged (and dirty) for a later flush.
  TMS_DCHECK_EQ(handed_off + kept, outbox->staged)
      << "outbox flushed a different tuple count than was staged";
  outbox->dirty.resize(write);  // TMS_ANALYZE_EXEMPT(shrink only)
  outbox->staged = kept;
  if (outbox->adaptive != nullptr) outbox->adaptive->Update(worst_occupancy);
  if (dropped) NotifyPossiblyDone();
}

size_t LocalRuntime::ShedStaleTuples(std::vector<Tuple>* block,
                                     overload::QueueGate* gate, uint32_t gid) {
  // Project occupancy across the block: each kept tuple raises it, so a
  // large block admitted just below a watermark cannot blow occupancy far
  // past it — the portion that would cross the watermark sheds instead.
  // `projected` is racy across producers, which only softens the watermark
  // by the concurrency degree; the hard capacity bound stays with the gate.
  const double capacity = static_cast<double>(gate->capacity());
  int64_t projected = gate->admitted();
  size_t write = 0;
  size_t shed = 0;
  for (size_t read = 0; read < block->size(); ++read) {
    Tuple& tuple = (*block)[read];
    const TuplePriority priority = tuple.priority();
    const double occupancy = static_cast<double>(projected) / capacity;
    const bool drop =
        (priority == TuplePriority::kLow &&
         occupancy >= options_.overload.shed_low_watermark) ||
        (priority == TuplePriority::kNormal &&
         occupancy >= options_.overload.shed_high_watermark);
    if (!drop) {
      ++projected;
      if (write != read) (*block)[write] = std::move(tuple);
      ++write;
      continue;
    }
    // Already counted as emitted when it was staged; only the shed counter
    // moves here. Tracked trees fail fast, exactly like a staging-time shed.
    overload_refs_[gid].RecordShed(priority);
    if (acker_ != nullptr && tuple.root_key() != 0) {
      if (auto info = acker_->Discard(tuple.root_key())) {
        FailDiscardedTree(*info);
      }
    }
    ++shed;
  }
  block->resize(write);  // TMS_ANALYZE_EXEMPT(shrink only)
  if (shed > 0) {
    int64_t prev = in_flight_.fetch_sub(static_cast<int64_t>(shed));
    TMS_DCHECK_GE(prev, static_cast<int64_t>(shed))
        << "in-flight count went negative shedding a stale block";
    TrackInbound(gid, -static_cast<int64_t>(shed));
  }
  return shed;
}

void LocalRuntime::DrainOutbox(Outbox* outbox) {
  FlushOutbox(outbox);
  // Credit mode may defer blocks; this outbox is about to go out of scope
  // (executor exit or crash hand-off), so park-and-retry until every staged
  // tuple is enqueued — or Stop makes FlushOutbox drop the remainder.
  while (outbox->staged > 0 && !stopping_.load()) {
    uint32_t gid = outbox->dirty.front();
    TaskQueue* queue = queue_of_[gid];
    {
      MutexLock lock(queue->mutex);
      if (!stopping_.load() &&
          queue->queue.size() >= options_.queue_capacity) {
        queue->not_full.WaitFor(queue->mutex, std::chrono::milliseconds(1));
      }
    }
    FlushOutbox(outbox);
  }
  if (outbox->staged > 0) FlushOutbox(outbox);  // stopping: drops remainder
  TMS_DCHECK_EQ(outbox->staged, size_t{0})
      << "outbox still staged after a drain";
}

void LocalRuntime::StallForCredits(Outbox* outbox) {
  MicrosT start = options_.clock->NowMicros();
  while (!stopping_.load() &&
         outbox->staged >= options_.overload.max_deferred_tuples) {
    uint32_t gid = outbox->dirty.front();
    TaskQueue* queue = queue_of_[gid];
    {
      MutexLock lock(queue->mutex);
      // Bounded park: woken early by the consumer's drain (not_full), and
      // re-checked at most 1 ms later regardless.
      if (!stopping_.load() &&
          gates_[gid]->admitted() >= gates_[gid]->capacity()) {
        queue->not_full.WaitFor(queue->mutex, std::chrono::milliseconds(1));
      }
    }
    FlushOutbox(outbox);
  }
  MicrosT end = options_.clock->NowMicros();
  if (end > start) {
    metrics_.RecordCreditStall(static_cast<uint64_t>(end - start) * 1000);
  }
}

void LocalRuntime::Deliver(int source_component, int target_component,
                           int task_index, const Tuple& tuple,
                           uint64_t* emitted, uint64_t* ack_batch,
                           uint64_t dedup_base, uint64_t* dedup_seq,
                           Outbox* outbox) {
  reliability::FaultInjector::RouteDecision decision;
  if (options_.fault_injector != nullptr) {
    decision = options_.fault_injector->OnRoute(
        topology_.components()[static_cast<size_t>(source_component)].name,
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
  if (dedup_seq != nullptr) {
    uint64_t d = Splitmix(dedup_base ^ (0x9e3779b97f4a7c15ULL * ++*dedup_seq));
    dedup_id = d == 0 ? 1 : d;
  }
  int copies = decision.duplicate ? 2 : 1;
  if (shedding_) {
    size_t gid = static_cast<size_t>(
        task_base_[static_cast<size_t>(target_component)] + task_index);
    double occupancy = gates_[gid]->Occupancy();
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
        ++*emitted;
        overload_refs_[gid].RecordShed(priority);
      }
      if (ack_batch != nullptr && tuple.root_key() != 0 &&
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
    if (ack_batch != nullptr) {
      // Each delivered instance is one tree edge: a fresh random id, XORed
      // into the emitter's batch at stage time. A dropped tuple's edge is
      // still counted — it will never be acked, so the tree times out and
      // replays, exactly like a network loss under Storm.
      uint64_t edge = NextEdgeId();
      copy.set_edge_id(edge);
      *ack_batch ^= edge;
    }
    ++*emitted;
    if (decision.drop) continue;
    Stage(target_component, task_index, std::move(copy), outbox);
  }
}

void LocalRuntime::Route(int source_component, const Tuple& tuple,
                         int direct_task, uint64_t* emitted,
                         uint64_t* ack_batch, uint64_t dedup_base,
                         uint64_t* dedup_seq, Outbox* outbox) {
  for (const RouteTarget& target :
       routes_[static_cast<size_t>(source_component)]) {
    int num_tasks = static_cast<int>(
        tasks_[static_cast<size_t>(target.component_index)].size());
    if (direct_task >= 0) {
      if (target.grouping != Grouping::kDirect) continue;
      INSIGHT_CHECK(direct_task < num_tasks)
          << "EmitDirect task " << direct_task << " out of range";
      Deliver(source_component, target.component_index, direct_task, tuple,
              emitted, ack_batch, dedup_base, dedup_seq, outbox);
      continue;
    }
    switch (target.grouping) {
      case Grouping::kShuffle: {
        uint64_t n = shuffle_counters_[static_cast<size_t>(source_component)]
                         .fetch_add(1, std::memory_order_relaxed);
        Deliver(source_component, target.component_index,
                static_cast<int>(n % num_tasks), tuple, emitted, ack_batch,
                dedup_base, dedup_seq, outbox);
        break;
      }
      case Grouping::kFields: {
        uint64_t h = HashValues(tuple.values(), target.field_indexes);
        Deliver(source_component, target.component_index,
                static_cast<int>(h % static_cast<uint64_t>(num_tasks)), tuple,
                emitted, ack_batch, dedup_base, dedup_seq, outbox);
        break;
      }
      case Grouping::kAll:
        for (int t = 0; t < num_tasks; ++t) {
          Deliver(source_component, target.component_index, t, tuple, emitted,
                  ack_batch, dedup_base, dedup_seq, outbox);
        }
        break;
      case Grouping::kGlobal:
        Deliver(source_component, target.component_index, 0, tuple, emitted,
                ack_batch, dedup_base, dedup_seq, outbox);
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
  Tuple tuple(fields_[static_cast<size_t>(component_index)], std::move(values),
              spout_time);
  tuple.set_root_key(info.root_key);
  tuple.set_trace_id(info.trace_id);
  tuple.set_priority(priority);
  uint64_t batch = 0;
  // Replay-stable dedup root: derived from the spout task and message id
  // (not the attempt), so a replayed attempt re-derives the exact same
  // per-emission dedup ids and checkpointed tasks can recognize
  // already-applied tuples, while same-numbered messages of different
  // spouts get disjoint id chains.
  uint64_t root_dedup = 0;
  uint64_t dedup_seq = 0;
  uint64_t* seq_ptr = nullptr;
  if (dedup_enabled_) {
    uint64_t d = Splitmix(message_id ^
                          SpoutScope(component_index, task_index));
    root_dedup = d == 0 ? 1 : d;
    seq_ptr = &dedup_seq;
  }
  Route(component_index, tuple, /*direct_task=*/-1, emitted, &batch,
        root_dedup, seq_ptr, outbox);
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
        // offset, and re-Opening would rewind it. Drain, not flush: the
        // relaunched executor gets fresh outboxes, so credit-deferred
        // tuples must be handed off (or dropped by Stop) before this one
        // goes out of scope.
        for (auto& collector : collectors) DrainOutbox(collector->outbox());
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
      // A long-lived topology's spouts then wait for their next batch.
      if (!acking || pending_roots_.load() == 0) {
        if (!long_lived_) break;
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
  for (auto& collector : collectors) DrainOutbox(collector->outbox());
  for (TaskRuntime* task : my_tasks) {
    if (acking) DrainSpoutEvents(task);  // last callbacks before Close
    task->spout->Close();
  }
}

void LocalRuntime::ExecutorLoop(ExecutorSlot* slot) {
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

  TaskContext context;
  context.component = def.name;
  context.num_tasks = def.num_tasks;
  for (TaskRuntime* task : my_tasks) {
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
        RestoreTask(task, def);
      }
    }
    task->needs_init = false;
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
  // The tasks' admission gates (credit replenishment on drain); null when
  // overload protection is off.
  std::vector<overload::QueueGate*> task_gates(my_tasks.size(), nullptr);
  if (!gates_.empty()) {
    for (size_t i = 0; i < my_tasks.size(); ++i) {
      task_gates[i] =
          gates_[static_cast<size_t>(task_base_[static_cast<size_t>(
                                         component_index)] +
                                     my_tasks[i]->task_index)]
              .get();
    }
  }
  std::vector<size_t> task_gids(my_tasks.size(), 0);
  for (size_t i = 0; i < my_tasks.size(); ++i) {
    task_gids[i] =
        static_cast<size_t>(task_base_[static_cast<size_t>(component_index)] +
                            my_tasks[i]->task_index);
  }
  // Bolt executor: drain the owned tasks' queues round-robin, moving up to
  // max_batch tuples out of a queue per lock acquisition (pseudo-parallel
  // execution of co-scheduled tasks, one not_full wake per drained block).
  std::vector<Tuple> batch;
  batch.reserve(options_.max_batch);
  uint64_t seen_epoch = 0;
  while (true) {
    const uint64_t epoch = action_epoch_.load(std::memory_order_acquire);
    if (epoch != seen_epoch) {
      RunTaskAction(epoch, component_index, my_tasks);
      seen_epoch = epoch;
    }
    bool any = false;
    for (size_t i = 0; i < my_tasks.size(); ++i) {
      TaskRuntime* task = my_tasks[i];
      if (elastic_enabled_) {
        // Migration gates: a task in any non-idle phase is frozen (arrivals
        // keep queueing); a retired source with a redirect sweeps stragglers
        // to the state-owning target instead of executing them clean.
        uint8_t phase =
            migration_phase_[task_gids[i]].load(std::memory_order_acquire);
        if (phase != kMigrationIdle) {
          if (HandleMigrationPhase(phase, task_gids[i], task, def)) any = true;
          continue;
        }
        int32_t fwd = forward_of_[task_gids[i]].load(std::memory_order_acquire);
        if (fwd >= 0) {
          if (ForwardQueuedTuples(task_gids[i], static_cast<size_t>(fwd))) {
            any = true;
          }
          continue;
        }
      }
      batch.clear();
      {
        MutexLock lock(task->input->mutex);
        std::deque<Tuple>& q = task->input->queue;
        size_t n = std::min(options_.max_batch, q.size());
        if (options_.overload.enable_load_shedding &&
            task->input->high_count > 0 && n < q.size()) {
          // Priority drain: when the queue holds more than one batch, the
          // critical tier jumps the line — up to `n` kHigh tuples are
          // extracted first (their relative order preserved), then the
          // remainder fills FIFO. This keeps kHigh latency proportional to
          // the kHigh backlog instead of the shed-watermark standing queue.
          const size_t want_high = std::min(n, task->input->high_count);
          size_t taken_high = 0;
          size_t write = 0;
          for (size_t read = 0; read < q.size(); ++read) {
            if (taken_high < want_high &&
                q[read].priority() == TuplePriority::kHigh) {
              batch.push_back(std::move(q[read]));
              ++taken_high;
              continue;
            }
            if (write != read) q[write] = std::move(q[read]);
            ++write;
          }
          q.resize(write);  // TMS_ANALYZE_EXEMPT(shrink only)
          task->input->high_count -= taken_high;
          n -= taken_high;
        }
        for (size_t k = 0; k < n; ++k) {
          if (options_.overload.enable_load_shedding &&
              task->input->high_count > 0 &&
              q.front().priority() == TuplePriority::kHigh) {
            --task->input->high_count;
          }
          batch.push_back(std::move(q.front()));
          q.pop_front();
        }
        if (!batch.empty()) task->input->not_full.NotifyAll();
      }
      // Credits are replenished the moment tuples leave the queue — the
      // producer-visible admission count tracks queue occupancy, not
      // execution progress.
      if (task_gates[i] != nullptr && !batch.empty()) {
        task_gates[i]->Release(batch.size());
      }
      if (batch.empty()) continue;
      any = true;
      for (size_t j = 0; j < batch.size(); ++j) {
        Tuple& tuple = batch[j];
        if (injector != nullptr &&
            injector->ShouldCrash(def.name, task->task_index)) {
          // The executor dies mid-execute: exactly the in-hand tuple is
          // lost (its tree will time out and replay under acking) and the
          // thread exits without Cleanup, like a killed Storm worker. The
          // supervisor will restart this executor with fresh bolt
          // instances. Emissions of the executions that completed before
          // the crash are delivered, and the un-executed remainder of the
          // drained batch goes back to the front of the queue — batching
          // must not widen the failure beyond what per-tuple hand-off lost.
          // Drain, not flush: the relaunched executor builds fresh outboxes,
          // so any credit-deferred tuples must be handed off before this
          // one goes out of scope.
          DrainOutbox(collectors[i]->outbox());
          if (j + 1 < batch.size()) {
            {
              MutexLock requeue(task->input->mutex);
              for (size_t k = batch.size(); k-- > j + 1;) {
                task->input->queue.push_front(std::move(batch[k]));
              }
              task->input->not_empty.NotifyOne();
            }
            // The drain above already released credits for the whole batch;
            // the requeued remainder re-occupies the queue, so re-charge the
            // gate or producers would over-admit by the requeued count.
            if (task_gates[i] != nullptr) {
              task_gates[i]->ForceAcquire(batch.size() - j - 1);
            }
          }
          int64_t prev = in_flight_.fetch_sub(1);
          TMS_DCHECK_GE(prev, int64_t{1})
              << "in-flight count went negative on crash";
          TrackInbound(task_gids[i], -1);
          NotifyPossiblyDone();
          slot->crashed.store(true);
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
          int64_t prev = in_flight_.fetch_sub(1);
          TMS_DCHECK_GE(prev, int64_t{1})
              << "in-flight count went negative after dedup";
          TrackInbound(task_gids[i], -1);
          NotifyPossiblyDone();
          continue;
        }
        collectors[i]->BeginExecute(tuple);
        MicrosT start = options_.clock->NowMicros();
        task->bolt->Execute(tuple, collectors[i].get());
        MicrosT end = options_.clock->NowMicros();
        refs[i].Record(end - start);
        if (tracer_ != nullptr && tuple.trace_id() != 0) {
          tracer_->RecordSpan(tuple.trace_id(),
                              observability::SpanKind::kQueueWait,
                              component_index, task->task_index,
                              tuple.trace_enqueue_micros(), start);
          tracer_->RecordSpan(tuple.trace_id(),
                              observability::SpanKind::kExecute,
                              component_index, task->task_index, start, end);
        }
        uint64_t emitted = collectors[i]->TakeEmitted();
        if (emitted > 0) refs[i].RecordEmit(emitted);
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
        int64_t prev = in_flight_.fetch_sub(1);
        TMS_DCHECK_GE(prev, int64_t{1})
            << "in-flight count went negative after execute";
        TrackInbound(task_gids[i], -1);
        NotifyPossiblyDone();
      }
      FlushOutbox(collectors[i]->outbox());
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
        for (size_t i = 0; i < my_tasks.size(); ++i) {
          TaskRuntime* task = my_tasks[i];
          if (elastic_enabled_ &&
              migration_phase_[task_gids[i]].load(
                  std::memory_order_acquire) != kMigrationIdle) {
            // Frozen mid-migration: the barrier may be swapping ckpt_slot,
            // and the final migration snapshot flushes the deferred acks
            // itself. Same gate as the drain path above.
            continue;
          }
          if (task->ckpt_slot >= 0 && !task->pending_acks.empty()) {
            MaybeCheckpoint(task, def, /*force=*/true);
          }
        }
      }
      if (stopping_.load()) break;
      if (long_lived_ && idle_.load()) {
        ParkIdle(seen_epoch, /*is_spout=*/false);
        continue;
      }
      // Park briefly on the first owned queue.
      TaskRuntime* task = my_tasks.empty() ? nullptr : my_tasks[0];
      if (task == nullptr) break;
      MutexLock lock(task->input->mutex);
      if (!stopping_.load() && task->input->queue.empty()) {
        // Bounded park; the outer loop re-polls every owned queue on wake,
        // so a spurious or early wake only costs one extra pass.
        task->input->not_empty.WaitFor(task->input->mutex,
                                       std::chrono::milliseconds(1));
      }
    }
  }
  // Drain (not just flush): stopping_ is set here, so FlushOutbox drops any
  // credit-deferred remainder and the in-flight count balances before Stop's
  // final accounting check.
  for (auto& collector : collectors) DrainOutbox(collector->outbox());
  for (TaskRuntime* task : my_tasks) task->bolt->Cleanup();
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
      if (slot->dead.load() || !slot->crashed.load() || stopping_.load()) {
        continue;
      }
      if (options_.enable_crash_loop_breaker &&
          !ContainCrashLoop(slot.get(), options_.clock->NowMicros())) {
        continue;  // backing off, or the breaker just tripped
      }
      if (slot->thread.joinable()) slot->thread.join();
      const ComponentDef& def =
          topology_.components()[static_cast<size_t>(slot->component_index)];
      for (auto& task : tasks_[static_cast<size_t>(slot->component_index)]) {
        if (task.bolt != nullptr &&
            task.task_index % def.num_executors == slot->executor_index) {
          task.bolt = def.bolt_factory();
          task.snapshottable = nullptr;
          task.needs_init = true;  // Prepare + restore on relaunch
        }
        // Spout tasks keep their instances and are not re-initialized; see
        // the crash point in SpoutLoop.
      }
      slot->crashed.store(false);
      executor_restarts_.fetch_add(1);
      ExecutorSlot* raw = slot.get();
      slot->thread = Thread([this, raw] { ExecutorLoop(raw); });
    }
    if (options_.enable_crash_loop_breaker) DrainDeadTaskQueues();

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
  // (the task's state is quiescent between executions); callers hand the
  // bytes to the background persister or the migration control block.
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

void LocalRuntime::SubmitTaskSnapshot(TaskRuntime* task,
                                      const ComponentDef& def,
                                      std::string bytes) {
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
  SubmitTaskSnapshot(task, def, std::move(bytes));
}

Status LocalRuntime::ApplyTaskSnapshot(TaskRuntime* task,
                                       const std::string& bytes) {
  // Nothing from the previous incarnation survives into the restore: the
  // suppression set and deferred acks roll back exactly as far as the state.
  // On any error the ledger is left cleared and the bolt is in its clean
  // freshly-prepared state (RestoreState's contract), so the caller can
  // safely fall back to clean or keep the source authoritative.
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

bool LocalRuntime::ContainCrashLoop(ExecutorSlot* slot, MicrosT now) {
  // next_restart_micros == 0 means this crash has not been recorded yet;
  // record it, prune the window, and either trip the breaker or start the
  // backoff clock. All of this state is supervisor-thread-only.
  if (slot->next_restart_micros == 0) {
    slot->restart_times.push_back(now);
    while (!slot->restart_times.empty() &&
           slot->restart_times.front() <
               now - options_.breaker_window_micros) {
      slot->restart_times.pop_front();
    }
    int crashes = static_cast<int>(slot->restart_times.size());
    if (crashes > options_.breaker_max_restarts) {
      TripBreaker(slot);
      return false;
    }
    double backoff =
        static_cast<double>(options_.restart_backoff_base_micros);
    for (int i = 1; i < crashes; ++i) {
      backoff *= options_.restart_backoff_factor;
      if (backoff >=
          static_cast<double>(options_.restart_backoff_max_micros)) {
        break;
      }
    }
    MicrosT delay = std::min<MicrosT>(static_cast<MicrosT>(backoff),
                                      options_.restart_backoff_max_micros);
    slot->next_restart_micros = now + delay;
  }
  if (now < slot->next_restart_micros) return false;  // still backing off
  slot->next_restart_micros = 0;
  return true;
}

void LocalRuntime::TripBreaker(ExecutorSlot* slot) {
  // The executor crashed `breaker_max_restarts + 1` times inside the
  // window: stop relaunching it. The crashed thread has already returned
  // (or is returning), so joining here is cheap and makes the slot's tasks
  // exclusively supervisor-owned from now on.
  slot->dead.store(true);
  if (slot->thread.joinable()) slot->thread.join();
  dead_executors_.fetch_add(1);
  const ComponentDef& def =
      topology_.components()[static_cast<size_t>(slot->component_index)];
  INSIGHT_LOG(Warning) << "circuit breaker tripped: executor "
                       << slot->executor_index << " of " << def.name
                       << " permanently failed after "
                       << slot->restart_times.size()
                       << " crashes; topology is degraded";
  for (auto& task : tasks_[static_cast<size_t>(slot->component_index)]) {
    if (task.task_index % def.num_executors != slot->executor_index) continue;
    metrics_.RecordBreakerTrip(def.name, task.task_index);
    if (task.spout == nullptr) continue;
    // A dead spout task's pending trees can never be re-emitted: fail them
    // now so the topology can drain. Deviation from Storm's contract: the
    // spout executor is permanently gone, so Ack/Fail callbacks for this
    // task are delivered on the supervisor thread from here on.
    if (!task.spout_done) {
      task.spout_done = true;
      live_spout_tasks_.fetch_sub(1);
    }
    if (acker_ == nullptr) continue;
    for (const reliability::TreeInfo& info :
         acker_->DiscardSpout(slot->component_index, task.task_index)) {
      replay_->Discard(info.message_id, info.spout_component,
                       info.spout_task);
      metrics_.RecordFail(def.name, task.task_index);
      if (tracer_ != nullptr && info.trace_id != 0) {
        tracer_->AbandonTrace(info.trace_id);
      }
      task.spout->Fail(info.message_id);
      size_t prev = pending_roots_.fetch_sub(1);
      TMS_DCHECK_GE(prev, size_t{1})
          << "pending tree count underflow on spout trip";
    }
    for (uint64_t message_id :
         replay_->DiscardAllFor(slot->component_index, task.task_index)) {
      metrics_.RecordFail(def.name, task.task_index);
      task.spout->Fail(message_id);
      size_t prev = pending_roots_.fetch_sub(1);
      TMS_DCHECK_GE(prev, size_t{1})
          << "pending tree count underflow on replay discard";
    }
    DrainSpoutEvents(&task);
  }
  NotifyPossiblyDone();
}

void LocalRuntime::DrainDeadTaskQueues() {
  for (auto& slot : executors_) {
    if (!slot->dead.load()) continue;
    const ComponentDef& def =
        topology_.components()[static_cast<size_t>(slot->component_index)];
    if (def.is_spout) continue;
    for (auto& task : tasks_[static_cast<size_t>(slot->component_index)]) {
      if (task.task_index % def.num_executors != slot->executor_index) {
        continue;
      }
      std::deque<Tuple> drained;
      {
        MutexLock lock(task.input->mutex);
        drained.swap(task.input->queue);
        if (!drained.empty()) task.input->not_full.NotifyAll();
      }
      if (drained.empty()) continue;
      if (!gates_.empty()) {
        gates_[static_cast<size_t>(task_base_[static_cast<size_t>(
                                       slot->component_index)] +
                                   task.task_index)]
            ->Release(drained.size());
      }
      int64_t prev =
          in_flight_.fetch_sub(static_cast<int64_t>(drained.size()));
      TMS_DCHECK_GE(prev, static_cast<int64_t>(drained.size()))
          << "in-flight count went negative draining a dead task";
      TrackInbound(
          static_cast<size_t>(
              task_base_[static_cast<size_t>(slot->component_index)] +
              task.task_index),
          -static_cast<int64_t>(drained.size()));
      if (acker_ != nullptr) {
        for (const Tuple& t : drained) {
          if (t.root_key() == 0) continue;
          // Discarding the tree (rather than letting it time out) frees the
          // replay payload immediately; tuples of the same tree still live
          // elsewhere will ack an unknown key, which the acker ignores.
          if (auto info = acker_->Discard(t.root_key())) {
            FailDiscardedTree(*info);
          }
        }
      }
      NotifyPossiblyDone();
    }
  }
}

Status LocalRuntime::MigrateTask(const MigrationRequest& request) {
  if (!elastic_enabled_) {
    return Status::FailedPrecondition(
        "MigrateTask requires Options::enable_migration");
  }
  if (!started_.load() || stopping_.load()) {
    return Status::FailedPrecondition("runtime is not running");
  }
  int component_index = -1;
  for (size_t c = 0; c < topology_.components().size(); ++c) {
    if (topology_.components()[c].name == request.component) {
      component_index = static_cast<int>(c);
      break;
    }
  }
  if (component_index < 0) {
    return Status::NotFound("unknown component " + request.component);
  }
  const ComponentDef& def =
      topology_.components()[static_cast<size_t>(component_index)];
  if (def.is_spout) {
    return Status::InvalidArgument("cannot migrate a spout task");
  }
  if (request.from_task == request.to_task) {
    return Status::InvalidArgument("from_task and to_task are the same");
  }
  if (request.from_task < 0 || request.from_task >= def.num_tasks ||
      request.to_task < 0 || request.to_task >= def.num_tasks) {
    return Status::InvalidArgument("task index out of range for " +
                                   request.component);
  }
  const size_t from_gid = static_cast<size_t>(
      task_base_[static_cast<size_t>(component_index)] + request.from_task);
  const size_t to_gid = static_cast<size_t>(
      task_base_[static_cast<size_t>(component_index)] + request.to_task);

  MutexLock migration_serial(migrate_mutex_);
  if (stopping_.load()) {
    return Status::FailedPrecondition("runtime is stopping");
  }
  {
    MutexLock lock(migration_.mutex);
    migration_.source_gid = from_gid;
    migration_.target_gid = to_gid;
    migration_.snapshot_ready = false;
    migration_.snapshot_status = Status::OK();
    migration_.bytes.clear();
    migration_.restore_done = false;
    migration_.restore_status = Status::OK();
    migration_.retire_done = false;
  }
  const MicrosT deadline =
      options_.clock->NowMicros() + options_.migration_timeout_micros;

  // 1. Hold the target: its executor stops draining the queue, so the state
  // restored in step 4 cannot race tuples that arrive right after the flip.
  forward_of_[to_gid].store(-1, std::memory_order_release);
  migration_phase_[to_gid].store(kMigrationHold, std::memory_order_release);

  // 2. Flip routing: every tuple routed from here on targets `to_task`.
  if (request.flip) {
    Status s = request.flip();
    if (!s.ok()) {
      return AbortMigration(request, from_gid, to_gid, /*flipped=*/false, s);
    }
  }

  // 3. Quiesce the source: wait until no tuple is staged, queued, or in
  // hand for it, stable across the settle window (an emitter that picked
  // its route from the pre-flip table has then provably staged its tuple,
  // which the source drained — the counter cannot tick up again).
  MicrosT zero_since = 0;
  while (true) {
    if (stopping_.load()) {
      return AbortMigration(
          request, from_gid, to_gid, /*flipped=*/true,
          Status::FailedPrecondition("runtime stopped during migration"));
    }
    MicrosT now = options_.clock->NowMicros();
    if (now > deadline) {
      return AbortMigration(
          request, from_gid, to_gid, /*flipped=*/true,
          Status::ResourceExhausted("migration quiesce timed out"));
    }
    if (task_inbound_[from_gid].load(std::memory_order_acquire) == 0) {
      if (zero_since == 0) {
        zero_since = now;
      } else if (now - zero_since >= options_.migration_settle_micros) {
        break;
      }
    } else {
      zero_since = 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // 4. Final snapshot at the source's next batch boundary (on its executor
  // thread, where the bolt is quiescent between executions).
  migration_phase_[from_gid].store(kMigrationSnapshot,
                                   std::memory_order_release);
  bool snapshot_ready = false;
  Status snapshot_status;
  {
    MutexLock lock(migration_.mutex);
    while (!migration_.snapshot_ready && !stopping_.load() &&
           options_.clock->NowMicros() <= deadline) {
      migration_.cv.WaitFor(migration_.mutex, std::chrono::milliseconds(1));
    }
    snapshot_ready = migration_.snapshot_ready;
    snapshot_status = migration_.snapshot_status;
  }
  if (!snapshot_ready) {
    return AbortMigration(
        request, from_gid, to_gid, /*flipped=*/true,
        Status::ResourceExhausted("source snapshot timed out"));
  }
  if (!snapshot_status.ok()) {
    return AbortMigration(request, from_gid, to_gid, /*flipped=*/true,
                          snapshot_status);
  }

  // 5. Restore the container into the held target.
  migration_phase_[to_gid].store(kMigrationRestore, std::memory_order_release);
  bool restore_done = false;
  Status restore_status;
  {
    MutexLock lock(migration_.mutex);
    while (!migration_.restore_done && !stopping_.load() &&
           options_.clock->NowMicros() <= deadline) {
      migration_.cv.WaitFor(migration_.mutex, std::chrono::milliseconds(1));
    }
    restore_done = migration_.restore_done;
    restore_status = migration_.restore_status;
  }
  if (!restore_done || !restore_status.ok()) {
    // The failed (or unresponsive) target never takes over: routing rolls
    // back and the source — whose state was only read, never cleared —
    // stays authoritative. A corrupt migration container must not degrade
    // the state line to a clean restart.
    return AbortMigration(request, from_gid, to_gid, /*flipped=*/true,
                          restore_done ? restore_status
                                       : Status::ResourceExhausted(
                                             "target restore timed out"));
  }

  // 6. The state line moved: the target takes over the source's checkpoint
  // slot, so its interval checkpoints continue the durable history step 4
  // just extended; the source inherits the target's. Both tasks are frozen
  // in Hold, and the phase release-stores below publish the swap to their
  // executors. On a full process restart the rebuilt topology loads
  // "component/from_task" back into the source under the seed routing —
  // the migration simply unwinds, losing nothing.
  {
    TaskRuntime& source = tasks_[static_cast<size_t>(component_index)]
                                [static_cast<size_t>(request.from_task)];
    TaskRuntime& target = tasks_[static_cast<size_t>(component_index)]
                                [static_cast<size_t>(request.to_task)];
    std::swap(source.ckpt_slot, target.ckpt_slot);
  }

  // 7. Retire the source (fresh bolt, empty ledger) and redirect stragglers:
  // a tuple that slipped past the settle window or still sits queued at the
  // source is swept to the state-owning target, never executed clean.
  forward_of_[from_gid].store(static_cast<int32_t>(to_gid),
                              std::memory_order_release);
  migration_phase_[from_gid].store(kMigrationRetire,
                                   std::memory_order_release);
  {
    MutexLock lock(migration_.mutex);
    while (!migration_.retire_done && !stopping_.load() &&
           options_.clock->NowMicros() <= deadline) {
      migration_.cv.WaitFor(migration_.mutex, std::chrono::milliseconds(1));
    }
    // A slow retire is not a failure: the phase store is visible, the source
    // executes it at its next pass, and until then the task is simply
    // frozen. State and routing are final either way.
  }

  // 8. Release the target into service.
  migration_phase_[to_gid].store(kMigrationIdle, std::memory_order_release);
  if (queue_of_[to_gid] != nullptr) queue_of_[to_gid]->not_empty.NotifyAll();
  {
    MutexLock lock(migration_.mutex);
    migration_.source_gid = kNoMigrationGid;
    migration_.target_gid = kNoMigrationGid;
  }
  metrics_.RecordMigration(request.component, request.from_task);
  return Status::OK();
}

Status LocalRuntime::AbortMigration(const MigrationRequest& request,
                                    size_t from_gid, size_t to_gid,
                                    bool flipped, const Status& cause) {
  if (flipped && request.unflip) request.unflip();
  {
    MutexLock lock(migration_.mutex);
    // Disarm late phase handlers: a deposit guarded on these gids now
    // no-ops instead of polluting the next migration's control block.
    migration_.source_gid = kNoMigrationGid;
    migration_.target_gid = kNoMigrationGid;
  }
  // Tuples that reached the target between flip and unflip are swept back
  // to the still-authoritative source once the target's executor looks at
  // its queue. The target is a standby, so the redirect staying armed is
  // harmless (and the next migration attempt to it clears it).
  forward_of_[to_gid].store(static_cast<int32_t>(from_gid),
                            std::memory_order_release);
  migration_phase_[from_gid].store(kMigrationIdle, std::memory_order_release);
  migration_phase_[to_gid].store(kMigrationIdle, std::memory_order_release);
  if (queue_of_[from_gid] != nullptr) {
    queue_of_[from_gid]->not_empty.NotifyAll();
  }
  if (queue_of_[to_gid] != nullptr) queue_of_[to_gid]->not_empty.NotifyAll();
  metrics_.RecordMigrationFailure(request.component, request.from_task);
  INSIGHT_LOG(Warning) << "migration of " << request.component << "/"
                       << request.from_task << " -> " << request.to_task
                       << " aborted (" << cause.message()
                       << "); source stays authoritative";
  return cause;
}

bool LocalRuntime::HandleMigrationPhase(uint8_t phase, size_t gid,
                                        TaskRuntime* task,
                                        const ComponentDef& def) {
  switch (phase) {
    case kMigrationHold:
      // Frozen: arrivals keep queueing until MigrateTask releases the task.
      return false;
    case kMigrationSnapshot: {
      // Batch boundary on the source's own executor thread: serialize the
      // full state line and — when the task is checkpointed — submit it on
      // the task's checkpoint line, so the deferred acks it covers flush
      // when the persist completes, exactly like an interval checkpoint.
      std::string bytes;
      Status s = SerializeTask(task, &bytes);
      if (s.ok() && coordinator_ != nullptr && task->ckpt_slot >= 0) {
        // Wait out any in-flight interval persist: the migration snapshot
        // must be the slot's newest submission.
        while (!coordinator_->CanSubmit(task->ckpt_slot) &&
               !stopping_.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (!stopping_.load()) SubmitTaskSnapshot(task, def, bytes);
      }
      {
        MutexLock lock(migration_.mutex);
        if (migration_.source_gid == gid && !migration_.snapshot_ready) {
          migration_.snapshot_ready = true;
          migration_.snapshot_status = s;
          migration_.bytes = std::move(bytes);
          migration_.cv.NotifyAll();
        }
      }
      // Self-transition to Hold — unless an abort already reset the phase
      // to Idle, in which case the task resumes as if nothing happened (the
      // extra snapshot submitted above is just a valid checkpoint).
      uint8_t expected = kMigrationSnapshot;
      migration_phase_[gid].compare_exchange_strong(
          expected, kMigrationHold, std::memory_order_acq_rel);
      return true;
    }
    case kMigrationRestore: {
      std::string bytes;
      {
        MutexLock lock(migration_.mutex);
        bytes = migration_.bytes;
      }
      Status s = ApplyTaskSnapshot(task, bytes);
      {
        MutexLock lock(migration_.mutex);
        if (migration_.target_gid == gid && !migration_.restore_done) {
          migration_.restore_done = true;
          migration_.restore_status = s;
          migration_.cv.NotifyAll();
        }
      }
      uint8_t expected = kMigrationRestore;
      migration_phase_[gid].compare_exchange_strong(
          expected, kMigrationHold, std::memory_order_acq_rel);
      return true;
    }
    case kMigrationRetire: {
      // The state now lives at the target: swap in a fresh bolt (the
      // Snapshottable contract has no "reset", and the old instance still
      // holds the migrated state) and clear the suppression ledger — the
      // target's copy travelled inside the container.
      task->bolt->Cleanup();
      task->bolt = def.bolt_factory();
      TaskContext context;
      context.component = def.name;
      context.num_tasks = def.num_tasks;
      context.task_index = task->task_index;
      task->bolt->Prepare(context);
      task->snapshottable = dynamic_cast<Snapshottable*>(task->bolt.get());
      task->pending_acks.clear();
      if (task->ledger != nullptr) task->ledger->Clear();
      {
        MutexLock lock(migration_.mutex);
        if (migration_.source_gid == gid && !migration_.retire_done) {
          migration_.retire_done = true;
          migration_.cv.NotifyAll();
        }
      }
      uint8_t expected = kMigrationRetire;
      migration_phase_[gid].compare_exchange_strong(
          expected, kMigrationIdle, std::memory_order_acq_rel);
      return true;
    }
    default:
      return false;
  }
}

bool LocalRuntime::ForwardQueuedTuples(size_t from_gid, size_t to_gid) {
  // Sweeps the retired source's queue into the state-owning target in
  // bounded chunks, with the producers' own admission discipline (credit
  // reservation, or the observe-room-then-append-whole overshoot bound).
  // Never blocks: this runs on the retired task's executor thread, which
  // may own the target task too — a full target means "stop here, the
  // executor drains it this same pass and re-enters on the next one".
  TaskQueue* from = queue_of_[from_gid];
  TaskQueue* to = queue_of_[to_gid];
  if (from == nullptr || to == nullptr) return false;
  overload::QueueGate* from_gate =
      gates_.empty() ? nullptr : gates_[from_gid].get();
  overload::QueueGate* to_gate =
      gates_.empty() ? nullptr : gates_[to_gid].get();
  const bool shedding = options_.overload.enable_load_shedding;
  bool any = false;
  std::vector<Tuple> chunk;
  while (!stopping_.load()) {
    // Reserve room at the target before popping anything, so a chunk never
    // needs to wait (credit mode: exact credits; otherwise: observed free
    // space, overshootable by at most this chunk — the flush-block bound).
    size_t room = 0;
    if (credit_flow_) {
      size_t want = options_.max_batch;
      while (want > 0 && !to_gate->TryAcquire(want)) {
        int64_t free = to_gate->capacity() - to_gate->admitted();
        size_t next =
            free > 0 ? std::min(static_cast<size_t>(free), options_.max_batch)
                     : size_t{0};
        if (next >= want) next = want - 1;  // racing admits: force progress
        want = next;
      }
      room = want;
    } else {
      MutexLock lock(to->mutex);
      room = to->queue.size() < options_.queue_capacity
                 ? std::min(options_.max_batch,
                            options_.queue_capacity - to->queue.size())
                 : 0;
    }
    if (room == 0) return any;
    chunk.clear();
    {
      MutexLock lock(from->mutex);
      size_t take = std::min(room, from->queue.size());
      for (size_t k = 0; k < take; ++k) {
        Tuple& t = from->queue.front();
        if (shedding && from->high_count > 0 &&
            t.priority() == TuplePriority::kHigh) {
          --from->high_count;
        }
        chunk.push_back(std::move(t));
        from->queue.pop_front();
      }
      if (take > 0) from->not_full.NotifyAll();
    }
    if (credit_flow_ && room > chunk.size()) {
      to_gate->Release(room - chunk.size());
    }
    if (chunk.empty()) return any;
    if (from_gate != nullptr) from_gate->Release(chunk.size());
    TrackInbound(from_gid, -static_cast<int64_t>(chunk.size()));
    {
      MutexLock lock(to->mutex);
      if (shedding) {
        for (const Tuple& t : chunk) {
          if (t.priority() == TuplePriority::kHigh) ++to->high_count;
        }
      }
      for (Tuple& t : chunk) {
        // TMS_ANALYZE_EXEMPT(deque chunk churn, bounded by queue_capacity)
        to->queue.push_back(std::move(t));
      }
      size_t sz = to->queue.size();
      if (credit_flow_) {
        TMS_CHECK_LE(sz, options_.queue_capacity)
            << "credit-admitted queue overshot its capacity on forward";
      }
      if (sz > to->peak_size.load(std::memory_order_relaxed)) {
        to->peak_size.store(sz, std::memory_order_relaxed);
      }
      to->not_empty.NotifyOne();
    }
    if (!credit_flow_ && to_gate != nullptr) {
      to_gate->ForceAcquire(chunk.size());
    }
    TrackInbound(to_gid, static_cast<int64_t>(chunk.size()));
    any = true;
  }
  return any;
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
  TaskQueue* queue = component_tasks[static_cast<size_t>(task)].input.get();
  if (queue == nullptr || options_.queue_capacity == 0) return 0.0;
  size_t sz = 0;
  {
    MutexLock lock(queue->mutex);
    sz = queue->queue.size();
  }
  return static_cast<double>(sz) / static_cast<double>(options_.queue_capacity);
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

size_t LocalRuntime::max_queue_occupancy() const {
  size_t peak = 0;
  for (const auto& component_tasks : tasks_) {
    for (const auto& task : component_tasks) {
      if (task.input == nullptr) continue;
      peak = std::max(peak,
                      task.input->peak_size.load(std::memory_order_relaxed));
    }
  }
  return peak;
}

int LocalRuntime::WorkerOfExecutor(const std::string& component,
                                   int executor_index) const {
  // Round-robin assignment of executors to workers, in component declaration
  // order (Storm's even scheduler).
  int global_executor = 0;
  for (const ComponentDef& def : topology_.components()) {
    if (def.name == component) {
      global_executor += executor_index;
      break;
    }
    global_executor += def.num_executors;
  }
  return global_executor % std::max(1, options_.num_workers);
}

}  // namespace dsps
}  // namespace insight
