#ifndef INSIGHT_DSPS_LOCAL_RUNTIME_H_
#define INSIGHT_DSPS_LOCAL_RUNTIME_H_

#include <atomic>
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
/// cluster: every executor is a thread, tasks in excess of their component's
/// executors share an executor pseudo-parallel (Figure 1), and executors are
/// assigned round-robin to worker processes (the paper configures one worker
/// per cluster node, following [35]).
///
/// Termination: a run completes when every spout task has reported
/// exhaustion (NextTuple returned false), no tuple remains in flight, and —
/// with acking enabled — every tracked tuple tree has been acked, replayed
/// to success, or permanently failed.
///
/// Long-lived use (StartLongLived): the topology outlives its input. A spout
/// task whose NextTuple returned false parks instead of ending, Feed() hands
/// the spouts their next batch, and AwaitQuiescence() marks the end of each
/// batch. RunOnTasks() runs an action on each task of a bolt on the task's
/// own executor thread, e.g. to reset per-batch state between batches.
///
/// Reliability (opt-in, `Options::enable_acking`): spout emissions via
/// Collector::EmitRooted are tracked by a Storm-style XOR acker
/// (src/reliability). Trees not fully processed within `ack_timeout_micros`
/// are re-emitted from the runtime's replay buffer with exponential backoff
/// up to `max_replays` times, then permanently failed (Spout::Fail). A
/// supervisor thread additionally restarts executor threads killed by the
/// optional FaultInjector, mirroring Storm's supervisor daemon.
class LocalRuntime {
 public:
  struct Options {
    /// Worker processes to spread executors over (informational grouping
    /// surfaced via WorkerOfExecutor; all threads share this process).
    int num_workers = 1;
    /// Per-task input queue capacity; emitters block when full
    /// (backpressure). A producer appends its flushed block whole once the
    /// queue dips below capacity, so occupancy can overshoot capacity by at
    /// most one block (strictly fewer than the block's tuples, block size <=
    /// the flush threshold) — TMS_CHECK'd at every append. Credit mode
    /// (`overload.enable_credit_flow`) admits exactly and never overshoots.
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
    /// Replay budget and backoff (see reliability::ReplayPolicy).
    int max_replays = 3;
    MicrosT replay_backoff_micros = 10'000;
    double replay_backoff_factor = 2.0;
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
    size_t dedup_ledger_capacity = 4096;
    /// Crash-loop containment: exponential restart backoff per executor,
    /// and a circuit breaker that permanently fails an executor restarted
    /// more than `breaker_max_restarts` times within `breaker_window_micros`
    /// (pending trees are failed, queued tuples drained, and the topology
    /// surfaces `degraded()`).
    bool enable_crash_loop_breaker = false;
    MicrosT restart_backoff_base_micros = 1'000;
    double restart_backoff_factor = 2.0;
    MicrosT restart_backoff_max_micros = 1'000'000;
    int breaker_max_restarts = 5;
    MicrosT breaker_window_micros = 10'000'000;

    // --- Tuple tracing (see DESIGN.md "Observability") ---

    /// Constructs the tracer and activates the per-tuple trace plumbing.
    /// Off by default = seed behaviour. With tracing enabled but
    /// `trace_sample_rate` 0, every instrumentation point stays compiled in
    /// and costs one branch per tuple — the configuration the bench-smoke
    /// throughput gate bounds at <=5% overhead.
    bool enable_tracing = false;
    /// Fraction of root emissions sampled, in [0, 1] (deterministic 1-in-N).
    double trace_sample_rate = 0.0;
    /// Retained span ring capacity (observability::Tracer::Options).
    size_t trace_max_spans = 65536;

    // --- Overload protection (all off by default = seed behaviour; see
    // DESIGN.md "Overload protection") ---

    /// Credit-based flow control, priority-aware load shedding and adaptive
    /// batch sizing (dsps/overload.h). With every feature off none of the
    /// per-queue gates are even constructed.
    overload::Options overload;

    // --- Elastic scheduling (off by default = seed behaviour; see
    // DESIGN.md "Elastic scheduling") ---

    /// Enables the live task-migration machinery (MigrateTask): per-task
    /// inflow counters and migration phase gates on the executor drain path.
    /// Off = none of it is allocated and the drain path tests one bool.
    bool enable_migration = false;
    /// A migration that cannot complete within this budget is aborted and
    /// rolled back (routing restored, source stays authoritative).
    MicrosT migration_timeout_micros = 10'000'000;
    /// The post-flip quiesce step requires the source task's inflow counter
    /// to read zero twice, this far apart, before snapshotting — closing the
    /// sub-microsecond window of an emitter that picked its route from the
    /// old table but had not yet staged the tuple.
    MicrosT migration_settle_micros = 2'000;
  };

  LocalRuntime(Topology topology, Options options);
  ~LocalRuntime();

  LocalRuntime(const LocalRuntime&) = delete;
  LocalRuntime& operator=(const LocalRuntime&) = delete;

  /// Spawns executor threads. FailedPrecondition if already started.
  Status Start();

  /// Blocks until the topology drains (see class comment), then stops all
  /// threads. Also usable after Stop().
  void AwaitCompletion();

  // --- Long-lived topologies (see DESIGN.md "Long-lived topology") ---

  /// Start() for a topology that outlives its input: spout executors do not
  /// exit once every task is exhausted but park, without polling, until
  /// Feed() re-arms them or Stop() ends the runtime. Between AwaitQuiescence()
  /// and the next Feed() idle bolt executors park the same way.
  Status StartLongLived();

  /// Blocks until the current batch is done: every spout task's NextTuple
  /// has returned false, no tuple is in flight and no tracked tree is
  /// pending. Unlike AwaitCompletion the threads keep running. Returns false
  /// if the runtime stopped instead.
  bool AwaitQuiescence();

  /// Hands the spouts of `component` their next batch: runs `feed` on every
  /// task of that spout on the task's executor thread, then re-arms the
  /// exhausted tasks so NextTuple is called again. Returns once every task
  /// ran `feed`. Call between batches (after AwaitQuiescence).
  Status Feed(const std::string& component,
              std::function<void(Spout* spout, int task_index)> feed);

  /// Runs `action` on every task of bolt `component`, each on its task's
  /// executor thread between two drained blocks, and returns once all ran.
  /// The action must not emit. Not concurrent with MigrateTask.
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
  /// Tuples staged or queued but not yet consumed; the distributed worker
  /// reports this in its heartbeat so the supervisor can detect cluster
  /// quiescence.
  int64_t in_flight() const { return in_flight_.load(); }
  /// Executor threads restarted by the supervisor after injected crashes.
  uint64_t executor_restarts() const { return executor_restarts_.load(); }

  /// True once the crash-loop breaker permanently failed at least one
  /// executor: the topology keeps running but its results are incomplete.
  bool degraded() const { return dead_executors_.load() > 0; }
  int dead_executors() const { return dead_executors_.load(); }
  /// The checkpoint coordinator (null unless checkpointing is enabled);
  /// exposed for persist counters in tests and benchmarks.
  const reliability::CheckpointCoordinator* checkpoint_coordinator() const {
    return coordinator_.get();
  }

  /// Worker process index of an executor (component, executor_index).
  int WorkerOfExecutor(const std::string& component, int executor_index) const;

  /// Highest input-queue occupancy any task queue ever reached (tuples).
  /// Regression hook for the backpressure overshoot bound: always <=
  /// queue_capacity + flush block - 1, and <= queue_capacity in credit mode.
  size_t max_queue_occupancy() const;

  // --- Elastic scheduling (see DESIGN.md "Elastic scheduling") ---

  /// One live task migration: moves the full state line (TCK1 container —
  /// dedup ledger + bolt snapshot) of `component`'s task `from_task` into
  /// `to_task`, atomically repointing new traffic via the caller's routing
  /// flip. Both tasks must belong to the same bolt component (identical rule
  /// sets, so the snapshot restores cleanly); `to_task` must be a standby —
  /// a task the current routing sends no traffic to.
  struct MigrationRequest {
    std::string component;
    int from_task = 0;
    int to_task = 0;
    /// Atomically repoints new tuples from `from_task` to `to_task` (e.g.
    /// core::LiveRouter::MoveEngine). Called exactly once, after the target
    /// task is held; a non-OK return aborts the migration before any state
    /// moves. Optional for kDirect-free test rigs.
    std::function<Status()> flip;
    /// Restores the exact pre-flip routing; called when any later step
    /// fails, so the source task stays authoritative.
    std::function<void()> unflip;
  };

  /// Executes the migration barrier synchronously: hold target → flip
  /// routing → quiesce the source's inflow → final snapshot at a batch
  /// boundary (submitted on the source's checkpoint line so deferred acks
  /// flush on persist) → restore into the target → swap checkpoint slots →
  /// retire the source with a fresh bolt. On any failure the flip is rolled
  /// back, post-flip arrivals are rerouted back to the source, and the
  /// source keeps processing with its state untouched (a failed restore on
  /// the target never degrades the state line to clean). Serialized: one
  /// migration at a time. Requires Options::enable_migration and a started,
  /// non-stopping runtime.
  Status MigrateTask(const MigrationRequest& request);

  /// Current occupancy of a bolt task's input queue in [0, 1] (fraction of
  /// queue_capacity; briefly takes the queue mutex). 0 for spouts/unknown.
  /// The elastic controller reads this as its queue-watermark signal.
  double QueueOccupancy(const std::string& component, int task);

 private:
  /// Lock hierarchy: a TaskQueue::mutex is a leaf — nothing else is
  /// acquired while one is held (see DESIGN.md "Concurrency discipline").
  struct TaskQueue {
    Mutex mutex{TMS_LOCK_RANK(90)};
    CondVar not_empty;
    CondVar not_full;
    std::deque<Tuple> queue GUARDED_BY(mutex);
    /// kHigh tuples currently queued. Maintained only while load shedding
    /// is enabled; lets the drain path skip the priority scan entirely when
    /// no critical tuples are waiting.
    size_t high_count GUARDED_BY(mutex) = 0;
    /// High-water mark of `queue.size()`. Written under `mutex` (appends
    /// serialize, drains never grow the queue); atomic so tests read it
    /// without the lock.
    std::atomic<size_t> peak_size{0};
  };

  /// Per-collector staging buffer for batched hand-off: tuples accumulate
  /// here (already counted in `in_flight_`, edge ids already assigned) and
  /// are pushed to their target queues as blocks by FlushOutbox.
  struct Outbox {
    std::vector<std::vector<Tuple>> per_task;  // indexed by global task id
    std::vector<uint32_t> dirty;               // global task ids with tuples
    size_t staged = 0;
    /// Outbox flush threshold controller; null unless adaptive batch sizing
    /// is on (owned by the TaskCollector). Stage consults its threshold
    /// instead of Options::emit_batch, FlushOutbox feeds it back the worst
    /// target occupancy.
    overload::AdaptiveBatch* adaptive = nullptr;
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
    std::unique_ptr<TaskQueue> input;        // bolts only
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
  };

  /// One executor thread plus its liveness state, so the supervisor can
  /// detect an injected crash and relaunch the executor.
  struct ExecutorSlot {
    int component_index = 0;
    int executor_index = 0;
    Thread thread;
    std::atomic<bool> crashed{false};
    /// Crash-loop containment (supervisor-thread-only once started).
    std::deque<MicrosT> restart_times;  // within the breaker window
    MicrosT next_restart_micros = 0;    // exponential backoff gate
    /// Breaker tripped: permanently failed, never relaunched. Queues of its
    /// tasks are drained by the supervisor sweep and by Stop().
    std::atomic<bool> dead{false};
  };

  class TaskCollector;

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
  /// Routes a tuple to subscriber tasks, staging each delivered copy into
  /// `outbox`. When `ack_batch` is non-null the tuple belongs to a tracked
  /// tree: each copy gets a fresh edge id which is XORed into *ack_batch at
  /// stage time (per-tuple edge semantics are independent of flush timing).
  /// When `dedup_seq` is non-null, each copy additionally gets a dedup id
  /// chained from `dedup_base` and the running per-execution sequence —
  /// replay-stable as long as the emitter and the routing are deterministic.
  void Route(int source_component, const Tuple& tuple, int direct_task,
             uint64_t* emitted, uint64_t* ack_batch, uint64_t dedup_base,
             uint64_t* dedup_seq, Outbox* outbox);
  /// Stages one tuple; counted in `in_flight_` immediately. Auto-flushes the
  /// outbox past Options::emit_batch (or the adaptive threshold).
  void Stage(int target_component, int task_index, Tuple tuple,
             Outbox* outbox) TMS_NO_ALLOC;
  /// Pushes every staged block to its target queue: one lock wait
  /// (backpressure-aware), one bulk append, and one not_empty wake per
  /// target task. During shutdown staged tuples are dropped. In credit mode
  /// a block whose target grants no credits stays staged (still counted
  /// in flight) for a later flush instead of blocking the producer.
  void FlushOutbox(Outbox* outbox) TMS_NO_ALLOC;
  /// Flushes until nothing stays staged: required before an outbox goes out
  /// of scope (executor exit, crash hand-off) since deferred tuples are
  /// counted in flight. Parks in bounded 1 ms slices between retries; under
  /// `stopping_` the staged remainder is dropped by FlushOutbox.
  void DrainOutbox(Outbox* outbox);
  /// Re-evaluates the shedding watermarks against the target queue's CURRENT
  /// occupancy for every tuple of a staged block, dropping the ones whose
  /// tier sheds (counted, fail-fast for tracked trees, released from
  /// `in_flight_`). Staging-time decisions go stale under credit deferral —
  /// admitting a backlog staged while the queue was briefly below the
  /// watermark would blow occupancy right past it. Returns the shed count.
  size_t ShedStaleTuples(std::vector<Tuple>* block, overload::QueueGate* gate,
                         uint32_t gid);
  /// Credit mode: bounded parks while `outbox` holds at least
  /// `overload.max_deferred_tuples` deferred tuples; accounted in
  /// `credits_stalled_ns`.
  void StallForCredits(Outbox* outbox);
  /// Fault-aware single delivery used by Route. Above the occupancy
  /// watermarks of the target's queue for the tuple's shedding tier the
  /// delivery is shed instead of staged — counted per priority, and
  /// fail-fast for tracked trees (the acker discards the tree and
  /// Spout::Fail fires).
  void Deliver(int source_component, int target_component, int task_index,
               const Tuple& tuple, uint64_t* emitted, uint64_t* ack_batch,
               uint64_t dedup_base, uint64_t* dedup_seq, Outbox* outbox);
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
  /// that arrives without a wake (supervisor, migration) is still seen.
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
  /// Supervisor sweep: trip bookkeeping for a crashed executor. Returns
  /// true when the slot may be relaunched now (backoff elapsed, breaker not
  /// tripped).
  bool ContainCrashLoop(ExecutorSlot* slot, MicrosT now);
  /// Permanently fails one executor slot: joins the thread, marks the
  /// topology degraded, and fails a dead spout task's pending trees.
  void TripBreaker(ExecutorSlot* slot);
  /// Drains the input queues of breaker-tripped bolt tasks, failing tracked
  /// tuples' trees; keeps emitters from blocking on dead tasks forever.
  void DrainDeadTaskQueues();

  // --- Elastic scheduling helpers (see DESIGN.md "Elastic scheduling") ---

  /// Migration phases a task can be placed in by MigrateTask. Executor
  /// threads read the phase with acquire at every drain pass; any non-idle
  /// phase freezes the task's queue (arrivals keep queueing).
  enum MigrationPhase : uint8_t {
    kMigrationIdle = 0,
    /// Frozen, no work owed (target awaiting state; source post-snapshot).
    kMigrationHold = 1,
    /// Source: serialize the TCK1 container at this batch boundary and
    /// deposit it in the control block, then self-transition to Hold.
    kMigrationSnapshot = 2,
    /// Target: apply the deposited container, report status, go to Hold.
    kMigrationRestore = 3,
    /// Source: swap in a fresh bolt (state now lives at the target), clear
    /// the ledger, then self-release to Idle.
    kMigrationRetire = 4,
  };

  /// Sentinel for MigrationControl::source_gid / target_gid: no migration
  /// is armed for that role.
  static constexpr size_t kNoMigrationGid = static_cast<size_t>(-1);

  /// Rendezvous between MigrateTask (controller thread) and the executors
  /// carrying out the Snapshot/Restore/Retire phases. One migration at a
  /// time, serialized by migrate_mutex_. The gids identify the armed
  /// migration: a phase handler that outlived an abort (it loaded its phase
  /// just before the rollback reset it) finds its gid disarmed and skips the
  /// deposit, so a stale snapshot can never pollute the next migration.
  struct MigrationControl {
    Mutex mutex{TMS_LOCK_RANK(88)};
    CondVar cv;
    size_t source_gid GUARDED_BY(mutex) = kNoMigrationGid;
    size_t target_gid GUARDED_BY(mutex) = kNoMigrationGid;
    bool snapshot_ready GUARDED_BY(mutex) = false;
    Status snapshot_status GUARDED_BY(mutex);
    std::string bytes GUARDED_BY(mutex);
    bool restore_done GUARDED_BY(mutex) = false;
    Status restore_status GUARDED_BY(mutex);
    bool retire_done GUARDED_BY(mutex) = false;
  };

  /// Executes the pending migration phase for one task on its executor
  /// thread. Returns true when phase work was performed (keeps the executor
  /// from parking mid-protocol).
  bool HandleMigrationPhase(uint8_t phase, size_t gid, TaskRuntime* task,
                            const ComponentDef& def);
  /// Moves every tuple queued at `from_gid` to `to_gid`'s queue (credit-
  /// correct), preserving in-flight accounting. Steady-state redirect for
  /// post-retire stragglers and the abort path's sweep-back. Returns true
  /// when tuples moved.
  bool ForwardQueuedTuples(size_t from_gid, size_t to_gid);
  /// Builds the TCK1 container (ledger + bolt snapshot) for `task`.
  Status SerializeTask(TaskRuntime* task, std::string* out);
  /// Parses and applies a TCK1 container to `task`: ledger contents replace
  /// the task's ledger, bolt state is restored. On error the bolt is clean
  /// (Snapshottable contract) and the ledger empty.
  Status ApplyTaskSnapshot(TaskRuntime* task, const std::string& bytes);
  /// Submits `bytes` on `task`'s checkpoint line, moving the deferred acks
  /// into the persist closure (exactly like MaybeCheckpoint's tail).
  /// Caller must have seen CanSubmit(task->ckpt_slot).
  void SubmitTaskSnapshot(TaskRuntime* task, const ComponentDef& def,
                          std::string bytes);
  /// Rolls a failed migration back: unflip routing, reroute post-flip
  /// arrivals from the target back to the source, release both tasks.
  Status AbortMigration(const MigrationRequest& request, size_t from_gid,
                        size_t to_gid, bool flipped, const Status& cause);
  /// Mirrors an in_flight_ mutation at task granularity (elastic mode only;
  /// one atomic add, free otherwise). Every site that moves in_flight_ calls
  /// this with the same magnitude, so task_inbound_[gid] == 0 iff no tuple
  /// is staged, queued, or in hand for the task.
  void TrackInbound(size_t gid, int64_t delta) TMS_NO_ALLOC {
    if (!elastic_enabled_) return;
    task_inbound_[gid].fetch_add(delta, std::memory_order_acq_rel);
  }

  Topology topology_;
  Options options_;
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
  std::vector<std::shared_ptr<const Fields>> fields_;
  std::vector<std::vector<TaskRuntime>> tasks_;
  std::vector<std::vector<RouteTarget>> routes_;
  std::vector<std::atomic<uint64_t>> shuffle_counters_;
  /// Global task id = task_base_[component] + task_index.
  std::vector<int> task_base_;
  /// Global task id -> input queue (nullptr for spout tasks).
  std::vector<TaskQueue*> queue_of_;
  int total_tasks_ = 0;

  // Overload protection (constructed only when any overload feature is on;
  // see DESIGN.md "Overload protection").
  /// Global task id -> admission gate (nullptr for spout tasks). Empty when
  /// overload protection is off — the hot path tests one vector emptiness.
  std::vector<std::unique_ptr<overload::QueueGate>> gates_;
  /// Global task id -> metrics handle of the queue's task, for shed
  /// attribution off the name map.
  std::vector<MetricsRegistry::TaskRef> overload_refs_;
  bool credit_flow_ = false;
  bool shedding_ = false;

  // Elastic scheduling (allocated only when Options::enable_migration).
  bool elastic_enabled_ = false;
  /// Global task id -> tuples staged, queued, or in hand for the task (the
  /// per-task mirror of in_flight_; every in_flight_ mutation moves exactly
  /// one of these). The quiesce step waits for the source's to reach zero.
  std::vector<std::atomic<int64_t>> task_inbound_;
  /// Global task id -> MigrationPhase (written release by MigrateTask and
  /// the phase handlers, read acquire on the drain path).
  std::vector<std::atomic<uint8_t>> migration_phase_;
  /// Global task id -> redirect target (-1 = none). After a migration, a
  /// straggler that still lands on the retired source is swept to the
  /// state-owning target instead of executing against the fresh bolt.
  std::vector<std::atomic<int32_t>> forward_of_;
  /// Serializes MigrateTask calls. Held across the whole barrier, which
  /// waits on rank-88 migration_.cv and takes rank-90 queue mutexes, hence
  /// ranked below them (and below the rank-20 coordinator, unused here but
  /// reachable from executors the barrier waits on).
  Mutex migrate_mutex_{TMS_LOCK_RANK(12)};
  MigrationControl migration_;

  std::vector<std::unique_ptr<ExecutorSlot>> executors_;
  Thread monitor_thread_;
  Thread supervisor_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> finished_{false};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<int> live_spout_tasks_{0};
  std::atomic<size_t> pending_roots_{0};
  std::atomic<uint64_t> executor_restarts_{0};
  std::atomic<int> dead_executors_{0};
  std::atomic<uint64_t> edge_seq_{0x243f6a8885a308d3ULL};
  /// Pure wait-signal pair for the completion predicate (which reads only
  /// atomics): the mutex guards no data, it closes the lost-wakeup window
  /// between a waiter's predicate check and its block. Leaf lock, like the
  /// TaskQueue mutexes.
  Mutex done_mutex_{TMS_LOCK_RANK(95)};
  CondVar done_cv_;

  // Long-lived topologies (StartLongLived).
  bool long_lived_ = false;
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
