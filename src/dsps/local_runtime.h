#ifndef INSIGHT_DSPS_LOCAL_RUNTIME_H_
#define INSIGHT_DSPS_LOCAL_RUNTIME_H_

#include <atomic>
#include <ctime>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread.h"
#include "common/thread_annotations.h"
#include "dsps/metrics.h"
#include "dsps/overload.h"
#include "dsps/task_queue.h"
#include "dsps/topology.h"
#include "observability/trace.h"
#include "reliability/acker.h"
#include "reliability/checkpoint.h"
#include "reliability/fault_injector.h"
#include "reliability/replay.h"
#include "reliability/state_store.h"

namespace insight {
namespace dsps {

/// Multithreaded in-process execution of a topology, mirroring Storm's local
/// cluster: every executor is a thread, and tasks in excess of their
/// component's executors share an executor pseudo-parallel (Figure 1).
///
/// Termination: a run completes when every spout task has reported
/// exhaustion (NextTuple returned false), no tuple remains in flight, and —
/// with acking enabled — every tracked tuple tree has been acked, replayed
/// to success, or permanently failed.
///
/// Long-lived: the topology outlives its input. A spout task whose NextTuple
/// returned false parks instead of ending, Feed() hands the spouts their next
/// batch, and AwaitQuiescence() marks the end of each batch. RunOnTasks() runs an action on each task of a bolt on the task's
/// own executor thread, e.g. to reset per-batch state between batches.
///
/// Operator chaining (always on, see DESIGN.md "Operator chaining"): a bolt
/// B runs inside the executor of its upstream bolt A, called directly, when
/// B's only subscription is a shuffle from A, A has no other subscriber, both
/// have the same task and executor counts, and B's bolt is not Snapshottable.
/// Task i of B then belongs to the executor of A's task i, and has no input
/// queue and no thread of its own.
///
/// Reliability (opt-in, `Options::enable_acking`): spout emissions via
/// Collector::EmitRooted are tracked by a Storm-style XOR acker
/// (src/reliability). Trees not fully processed within `ack_timeout_micros`
/// are re-emitted from the runtime's replay buffer with exponential backoff
/// up to `max_replays` times, then permanently failed (Spout::Fail). A
/// supervisor thread additionally relaunches every executor thread killed by
/// the optional FaultInjector, mirroring Storm's supervisor daemon.
class LocalRuntime {
 public:
  struct Options {
    /// Per-task input queue capacity; emitters block when full
    /// (backpressure). A producer appends its flushed block whole once the
    /// queue dips below capacity, so occupancy can overshoot capacity by at
    /// most one block (strictly fewer than the block's tuples, block size <=
    /// the flush threshold) — TMS_CHECK'd at every append.
    size_t queue_capacity = 8192;
    /// Consumer side: max tuples a bolt executor drains from one task queue
    /// per lock acquisition.
    size_t max_batch = 64;
    /// Producer side: emissions are staged in a per-collector outbox and
    /// flushed as per-target blocks (one lock + one CV wake per block) once
    /// this many tuples are staged, or at the emitter's natural flush
    /// points (end of an Execute batch, spout idle/exhaustion).
    size_t emit_batch = 32;
    /// When > 0, a monitor thread takes a metrics window snapshot at this
    /// period (the paper uses 40 s).
    MicrosT monitor_interval_micros = 0;
    const Clock* clock = SystemClock::Get();

    /// At-least-once delivery for EmitRooted tuples. Off by default: the
    /// unacked path is byte-for-byte the seed behaviour and the figure
    /// benchmarks run unchanged.
    bool enable_acking = false;
    /// A tree not fully acked this long after (re-)emission is failed.
    MicrosT ack_timeout_micros = 30'000'000;
    /// Replay budget and backoff base (see reliability::ReplayPolicy; the
    /// backoff doubles per attempt).
    int max_replays = 3;
    MicrosT replay_backoff_micros = 10'000;
    /// Supervisor sweep period (tree expiry + crashed-executor restarts).
    MicrosT supervisor_interval_micros = 2'000;
    /// Optional fault injection; not owned, must outlive the runtime. The
    /// supervisor restarts crashed executors whether or not acking is on.
    reliability::FaultInjector* fault_injector = nullptr;

    // --- Stateful recovery (all off by default = seed behaviour; see
    // DESIGN.md "State & recovery") ---

    /// Periodically checkpoint every task whose bolt implements
    /// Snapshottable through `state_store`, and restore the latest durable
    /// snapshot when an executor is (re)launched. With acking on,
    /// checkpointed tasks defer their acker updates until the covering
    /// snapshot is durable, so a crash rolls processing back to the last
    /// checkpoint and replays re-execute exactly the rolled-back suffix.
    bool enable_checkpointing = false;
    MicrosT checkpoint_interval_micros = 100'000;
    /// Checkpoint destination; required when checkpointing. Not owned, must
    /// outlive the runtime.
    reliability::StateStore* state_store = nullptr;
    /// Suppress re-execution of replayed duplicates at checkpointed tasks
    /// via a bounded per-task ledger of tuple dedup ids (checkpointed
    /// atomically with the state). Requires acking + checkpointing; yields
    /// effectively-once state for deterministic (non-shuffle) routings.
    bool enable_replay_dedup = false;

    // --- Tuple tracing (see DESIGN.md "Observability") ---

    /// Constructs the tracer and activates the per-tuple trace plumbing.
    /// Off by default = seed behaviour. With tracing enabled but
    /// `trace_sample_rate` 0, every instrumentation point stays compiled in
    /// and costs one branch per tuple — the configuration the bench-smoke
    /// throughput gate bounds at <=5% overhead.
    bool enable_tracing = false;
    /// Fraction of root emissions sampled, in [0, 1] (deterministic 1-in-N).
    double trace_sample_rate = 0.0;

    // --- Overload protection (all off by default = seed behaviour; see
    // DESIGN.md "Overload protection") ---

    /// Priority-aware load shedding (dsps/overload.h). It also makes each
    /// task queue's drain priority-aware (dsps/task_queue.h).
    overload::Options overload;
  };

  LocalRuntime(Topology topology, Options options);
  ~LocalRuntime();

  LocalRuntime(const LocalRuntime&) = delete;
  LocalRuntime& operator=(const LocalRuntime&) = delete;

  // --- Lifecycle (see DESIGN.md "Long-lived topology") ---

  /// Spawns executor threads. FailedPrecondition if already started. Spout
  /// executors do not exit once every task is exhausted but park, without
  /// polling, until Feed() re-arms them or Stop() ends the runtime. Between
  /// AwaitQuiescence() and the next Feed() idle bolt executors park the same
  /// way.
  Status Start();

  /// Blocks until the current batch is done: every spout task's NextTuple
  /// has returned false, no tuple is in flight and no tracked tree is
  /// pending. The threads keep running. Returns false if the runtime
  /// stopped instead.
  bool AwaitQuiescence();

  /// AwaitQuiescence(), then Stop(). Also usable after Stop().
  void AwaitCompletion();

  /// Hands the spouts of `component` their next batch: runs `feed` on every
  /// task of that spout on the task's executor thread, then re-arms the
  /// exhausted tasks so NextTuple is called again. Returns once every task
  /// ran `feed`. Call between batches (after AwaitQuiescence).
  Status Feed(const std::string& component,
              std::function<void(Spout* spout, int task_index)> feed);

  /// Runs `action` on every task of bolt `component`, each on its task's
  /// executor thread between two drained blocks, and returns once all ran.
  /// The action must not emit.
  Status RunOnTasks(const std::string& component,
                    std::function<void(Bolt* bolt, int task_index)> action);

  /// Requests asynchronous stop (tuples may be dropped) and joins threads.
  void Stop();

  bool finished() const { return finished_.load(); }

  MetricsRegistry* metrics() { return &metrics_; }
  /// The span tracer; null unless Options::enable_tracing.
  observability::Tracer* tracer() { return tracer_.get(); }
  const observability::Tracer* tracer() const { return tracer_.get(); }
  const Topology& topology() const { return topology_; }

  /// Tracked tuple trees not yet resolved (acking only).
  size_t pending_trees() const { return pending_roots_.load(); }
  /// Tuples flushed towards a queue, queued or being executed, and not yet
  /// settled by their consumer (see `in_flight_`). Tuples still staged in an
  /// outbox are not counted: their emitter's unsettled input or its live
  /// spout task stands for them, and a spout flushes before it counts out.
  /// The distributed worker reports this in its heartbeat, next to its spouts'
  /// liveness, so the supervisor can detect cluster quiescence.
  int64_t in_flight() const { return in_flight_.load(); }
  /// Executor threads restarted by the supervisor after injected crashes.
  uint64_t executor_restarts() const { return executor_restarts_.load(); }
  /// The checkpoint coordinator (null unless checkpointing is enabled);
  /// exposed for persist counters in tests and benchmarks.
  const reliability::CheckpointCoordinator* checkpoint_coordinator() const {
    return coordinator_.get();
  }

  /// CPU time one executor thread has used since it was (re)launched. An
  /// executor runs its component's tasks and every task chained behind them,
  /// so `component` names the chain head.
  struct ExecutorCpu {
    std::string component;
    int executor_index = 0;
    double cpu_seconds = 0.0;
  };
  /// Reads every executor thread's CPU clock from the calling thread
  /// (pthread_getcpuclockid + clock_gettime), in executor order; the
  /// executors do no bookkeeping for it. An executor whose thread is not
  /// running reads 0.
  std::vector<ExecutorCpu> ExecutorCpuTimes() const;
  struct ExecutorUtilisation {
    std::string component;
    int executor_index = 0;
    /// CPU seconds per wall second: 1.0 is one core kept busy.
    double utilisation = 0.0;
  };
  /// Each executor's CPU seconds between two ExecutorCpuTimes() readings of
  /// this runtime, divided by the wall seconds between them. An executor
  /// relaunched in between counts its new thread only.
  static std::vector<ExecutorUtilisation> Utilisation(
      const std::vector<ExecutorCpu>& before,
      const std::vector<ExecutorCpu>& after, double wall_seconds);

  /// Highest input-queue occupancy any task queue ever reached (tuples).
  /// Regression hook for the backpressure overshoot bound: always <=
  /// queue_capacity + flush block - 1.
  size_t max_queue_occupancy() const;

  /// Current occupancy of a bolt task's input queue (fraction of
  /// queue_capacity, see TaskQueue::Occupancy). 0 for spouts, chained tasks
  /// (they have no queue) and unknown tasks.
  double QueueOccupancy(const std::string& component, int task);

 private:
  /// Per-collector staging buffer for batched hand-off: tuples accumulate
  /// here (edge ids already assigned) and are pushed to their target queues
  /// as blocks by FlushOutbox, which first adds them to `in_flight_`. Every
  /// flush empties the outbox.
  struct Outbox {
    std::vector<std::vector<Tuple>> per_task;  // indexed by global task id
    std::vector<uint32_t> dirty;               // global task ids with tuples
    /// Staged tuples, none of them counted in `in_flight_` yet.
    size_t staged = 0;
    /// Time flushes spent blocked on full downstream queues since the owning
    /// collector's current execution began.
    MicrosT blocked_micros = 0;
  };

  /// Ack/Fail notifications queued for delivery on the spout's executor
  /// thread (Storm delivers both callbacks on the spout executor).
  struct SpoutEventQueue {
    Mutex mutex{TMS_LOCK_RANK(90)};
    // (is_ack, message_id)
    std::deque<std::pair<bool, uint64_t>> events GUARDED_BY(mutex);
  };

  struct TaskRuntime {
    int component_index = 0;
    int task_index = 0;  // within component
    std::unique_ptr<Spout> spout;
    std::unique_ptr<Bolt> bolt;
    std::unique_ptr<TaskQueue> input;        // bolts only, none if chained
    std::unique_ptr<SpoutEventQueue> events; // spouts only, acking only
    bool spout_done = false;

    // --- Stateful recovery (executor-thread-owned; the supervisor touches
    // these only after joining the crashed thread) ---
    /// Open/Prepare (+ restore) still owed; set by the supervisor when it
    /// swaps in a fresh bolt so the relaunched executor re-initializes.
    bool needs_init = true;
    /// The bolt's Snapshottable view; refreshed at init. Null = stateless.
    Snapshottable* snapshottable = nullptr;
    /// CheckpointCoordinator slot; -1 = task is not checkpointed.
    int ckpt_slot = -1;
    std::unique_ptr<reliability::DedupLedger> ledger;
    /// Checkpoint-deferred acker deltas (root key -> XOR of edges consumed
    /// and emitted since the last submitted checkpoint). Moved into the
    /// persist completion closure at submit time, so exactly one thread
    /// owns any given delta set.
    std::unordered_map<uint64_t, uint64_t> pending_acks;
    /// Epoch of the last task action (Feed / RunOnTasks) run on this task;
    /// a relaunched executor never runs an action twice.
    uint64_t action_epoch = 0;
  };

  struct RouteTarget {
    int component_index = 0;
    Grouping grouping = Grouping::kShuffle;
    std::vector<int> field_indexes;  // source-field indexes for kFields
    /// A chained shuffle edge: the emitter's executor runs the target task
    /// inline instead of staging the tuple.
    bool chained = false;
  };

  class TaskCollector;

  /// One task of a chained component, owned by the executor of its chain
  /// head and run inline whenever its upstream task emits.
  struct ChainedTask {
    TaskRuntime* task = nullptr;
    TaskCollector* collector = nullptr;
    MetricsRegistry::TaskRef ref;
    /// Wall time of this task's executions since the caller's current
    /// execution began; the caller's self time excludes it.
    MicrosT elapsed_micros = 0;
    /// The owning executor's crash flag, shared by the whole chain: a fault
    /// injected into any member kills the executor.
    bool* crashed = nullptr;
  };

  static constexpr clockid_t kNoCpuClock = -1;

  /// One executor thread plus its liveness state, so the supervisor can
  /// detect an injected crash and relaunch the executor.
  struct ExecutorSlot {
    int component_index = 0;
    int executor_index = 0;
    Thread thread;
    std::atomic<bool> crashed{false};
    /// The running thread's CPU clock, published by the thread itself for
    /// ExecutorCpuTimes; kNoCpuClock while no thread runs the loop.
    std::atomic<clockid_t> cpu_clock{kNoCpuClock};
  };

  /// One emission's routing context: the emitting component, the outbox its
  /// copies are staged into and the counter each delivered copy bumps. For a
  /// tuple of a tracked tree `ack_batch` is non-null: each copy gets a fresh
  /// edge id XORed into it at stage time (per-tuple edge semantics are
  /// independent of flush timing). When `dedup_seq` is non-null too, each
  /// copy also gets a dedup id chained from `dedup_base` and the running
  /// per-execution sequence — replay-stable as long as the emitter and the
  /// routing are deterministic. `chained` is the emitter's chained task,
  /// when its one subscription is a chained edge.
  struct Emission {
    int source_component = 0;
    ChainedTask* chained = nullptr;
    Outbox* outbox = nullptr;
    uint64_t* emitted = nullptr;
    uint64_t* ack_batch = nullptr;
    uint64_t* dedup_seq = nullptr;
    uint64_t dedup_base = 0;
  };

  void ExecutorLoop(ExecutorSlot* slot);
  void SpoutLoop(ExecutorSlot* slot, const ComponentDef& def,
                 std::vector<TaskRuntime*>& my_tasks,
                 std::vector<std::unique_ptr<TaskCollector>>& collectors);
  void MonitorLoop();
  void SupervisorLoop();
  /// Delivers queued Ack/Fail callbacks to one spout task.
  void DrainSpoutEvents(TaskRuntime* task);
  /// Registers and routes one tracked root tuple (first emission and
  /// replays). Adds to `emitted` per delivered copy.
  void EmitTracked(int component_index, int task_index, uint64_t message_id,
                   int attempt, std::vector<Value> values, MicrosT spout_time,
                   TuplePriority priority, uint64_t* emitted, Outbox* outbox);
  /// A tracked tuple tree fully processed: ack bookkeeping + spout
  /// notification.
  void OnTreeCompleted(const reliability::TreeInfo& info);
  /// Routes a tuple to subscriber tasks (only the kDirect ones, at
  /// `direct_task`, when that is >= 0), staging each delivered copy into the
  /// emission's outbox.
  void Route(const Emission& emission, const Tuple& tuple, int direct_task);
  /// Stages one tuple, uncounted until the outbox flushes (see `in_flight_`).
  /// Auto-flushes the outbox past Options::emit_batch.
  void Stage(int target_component, int task_index, Tuple tuple,
             Outbox* outbox) TMS_NO_ALLOC;
  /// Adds the outbox's staged tuples to `in_flight_`, then appends every
  /// staged block to its target queue (TaskQueue::Append). During shutdown
  /// staged tuples are dropped. Leaves the outbox empty.
  void FlushOutbox(Outbox* outbox) TMS_NO_ALLOC;
  /// Fault-aware single delivery used by Route. Above the occupancy
  /// watermarks of the target's queue for the tuple's shedding tier the
  /// delivery is shed instead of staged — counted per priority, and
  /// fail-fast for tracked trees (the acker discards the tree and
  /// Spout::Fail fires).
  void Deliver(const Emission& emission, int target_component, int task_index,
               const Tuple& tuple);
  /// Runs one delivered tuple through a chained task, on the caller's
  /// thread. Under acking, folds the consumed edge and the task's emitted
  /// edges into the caller's `ack_batch`, so the chain acks as one bolt.
  void ExecuteChained(ChainedTask* link, const Tuple& tuple,
                      uint64_t* ack_batch);
  /// Records one finished Execute of a task: its self time (the call minus
  /// chained callees and emit-blocked time) and emission count, and for a
  /// sampled tuple its spans (queue wait only for a `queued` tuple).
  void RecordExecution(const Tuple& tuple, const TaskRuntime& task,
                       TaskCollector* collector, MetricsRegistry::TaskRef* ref,
                       MicrosT start, MicrosT end, bool queued);
  void NotifyPossiblyDone();

  // --- Long-lived helpers ---

  /// Posts a task action for every task of `component` and waits until all
  /// ran (Feed passes a spout action, RunOnTasks a bolt action).
  Status PostTaskAction(const std::string& component,
                        std::function<void(Spout*, int)> spout_action,
                        std::function<void(Bolt*, int)> bolt_action);
  /// Executor side: runs the posted action `epoch` on the owned tasks it is
  /// meant for, once per task, and reports them done.
  void RunTaskAction(uint64_t epoch, int component_index,
                     const std::vector<TaskRuntime*>& my_tasks);
  /// Parks an executor with nothing to do until a task action is posted,
  /// the runtime stops or (bolts) the next batch starts. Bounded, so work
  /// that arrives without a wake (the supervisor's) is still seen.
  void ParkIdle(uint64_t seen_epoch, bool is_spout);
  /// Fresh nonzero pseudo-random edge id for the acker.
  uint64_t NextEdgeId() TMS_NO_ALLOC;

  // --- Stateful recovery helpers (see DESIGN.md "State & recovery") ---

  /// Serializes `task` (ledger + bolt state) and submits it to the
  /// coordinator, moving the accumulated deferred acks into the persist
  /// completion closure. `force` skips the interval gate (idle flush).
  void MaybeCheckpoint(TaskRuntime* task, const ComponentDef& def, bool force);
  /// Loads and applies the latest durable snapshot for `task` (barriering on
  /// any in-flight persist first). Corrupt or unloadable snapshots degrade
  /// to a logged warning + clean state, never a crash.
  void RestoreTask(TaskRuntime* task, const ComponentDef& def);
  /// Permanently fails one discarded tree: drops the replay payload, queues
  /// the spout Fail callback, and releases the pending-root count.
  void FailDiscardedTree(const reliability::TreeInfo& info);
  /// Builds the TCK1 container (ledger + bolt snapshot) for `task`.
  Status SerializeTask(TaskRuntime* task, std::string* out);
  /// Parses and applies a TCK1 container to `task`: ledger contents replace
  /// the task's ledger, bolt state is restored. On error the bolt is clean
  /// (Snapshottable contract) and the ledger empty.
  Status ApplyTaskSnapshot(TaskRuntime* task, const std::string& bytes);

  Topology topology_;
  Options options_;
  /// Output schema of each component, indexed by component index. Tuples
  /// point at these without owning them, so this is declared before every
  /// member that can hold a tuple (queues, bolts) and destroyed after them;
  /// the outboxes live on executor threads, joined by Stop().
  std::vector<std::unique_ptr<const Fields>> fields_;
  MetricsRegistry metrics_;

  // Reliability state (constructed only when acking is enabled).
  std::unique_ptr<reliability::Acker> acker_;
  std::unique_ptr<reliability::ReplayBuffer> replay_;
  // Observability state (constructed only when tracing is enabled).
  std::unique_ptr<observability::Tracer> tracer_;
  // Recovery state (constructed only when checkpointing is enabled).
  std::unique_ptr<reliability::CheckpointCoordinator> coordinator_;
  /// Dedup ids are assigned to tracked tuples (acking + dedup + at least
  /// one checkpointed task); cached so the emit path tests one bool.
  bool dedup_enabled_ = false;

  // Flattened state, indexed by component index.
  std::vector<std::vector<TaskRuntime>> tasks_;
  std::vector<std::vector<RouteTarget>> routes_;
  std::vector<std::atomic<uint64_t>> shuffle_counters_;
  /// Operator chaining: the component chained behind each component, and
  /// the component each chained one runs behind (-1 = none).
  std::vector<int> chain_next_;
  std::vector<int> chain_prev_;
  /// Global task id = task_base_[component] + task_index.
  std::vector<int> task_base_;
  /// Global task id -> input queue (nullptr for spout and chained tasks).
  std::vector<TaskQueue*> queue_of_;
  int total_tasks_ = 0;

  // Load shedding (see DESIGN.md "Overload protection").
  /// Global task id -> metrics handle of the queue's task, for shed
  /// attribution off the name map. Empty when shedding is off.
  std::vector<MetricsRegistry::TaskRef> overload_refs_;
  bool shedding_ = false;

  std::vector<std::unique_ptr<ExecutorSlot>> executors_;
  Thread monitor_thread_;
  Thread supervisor_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> finished_{false};
  /// Tuples counted into the topology and not yet settled. Invariant:
  /// in_flight_ >= tuples queued + tuples being executed, so
  /// live_spout_tasks_ == in_flight_ == pending_roots_ == 0 means quiescent.
  /// Counting is per block, not per tuple:
  /// - FlushOutbox adds an outbox's staged tuples before any of its blocks
  ///   reaches a queue. Until then a staged tuple is covered by its
  ///   emitter: a bolt's unsettled input batch, or a live spout task (a
  ///   spout flushes before it counts out).
  /// - A bolt executor settles its drained batch (executed and
  ///   dedup-suppressed tuples alike) with one subtraction, after flushing
  ///   the outboxes that batch filled. A crash settles the executed prefix
  ///   plus the tuple in hand; the requeued rest stays counted.
  /// - A shed tuple is dropped before it is staged and never counted; a
  ///   shutdown drop subtracts only tuples already counted.
  std::atomic<int64_t> in_flight_{0};
  std::atomic<int> live_spout_tasks_{0};
  std::atomic<size_t> pending_roots_{0};
  std::atomic<uint64_t> executor_restarts_{0};
  std::atomic<uint64_t> edge_seq_{0x243f6a8885a308d3ULL};
  /// Pure wait-signal pair for the completion predicate (which reads only
  /// atomics): the mutex guards no data, it closes the lost-wakeup window
  /// between a waiter's predicate check and its block. Leaf lock, like the
  /// TaskQueue mutexes.
  Mutex done_mutex_{TMS_LOCK_RANK(95)};
  CondVar done_cv_;

  // Long-lived topologies.
  /// Set by AwaitQuiescence, cleared by Feed: between batches idle bolt
  /// executors park on idle_cv_ instead of polling their queues each
  /// millisecond.
  std::atomic<bool> idle_{false};
  /// Parked idle executors wait here (on done_mutex_).
  CondVar idle_cv_;
  /// Bumped once per posted task action; executors compare it to the epoch
  /// they last handled at the top of every pass.
  std::atomic<uint64_t> action_epoch_{0};
  /// One task action at a time: held across PostTaskAction, which takes the
  /// rank-89 action mutex, rank-90 queue mutexes and rank-95 done_mutex_.
  Mutex action_call_mutex_{TMS_LOCK_RANK(14)};
  /// The posted action and its outstanding task count. Leaf lock.
  struct TaskAction {
    Mutex mutex{TMS_LOCK_RANK(89)};
    CondVar done;
    uint64_t epoch GUARDED_BY(mutex) = 0;
    int component_index GUARDED_BY(mutex) = -1;
    std::function<void(Spout*, int)> spout_action GUARDED_BY(mutex);
    std::function<void(Bolt*, int)> bolt_action GUARDED_BY(mutex);
    int remaining GUARDED_BY(mutex) = 0;
  };
  TaskAction action_;
};

}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_LOCAL_RUNTIME_H_
