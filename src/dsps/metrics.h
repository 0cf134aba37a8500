#ifndef INSIGHT_DSPS_METRICS_H_
#define INSIGHT_DSPS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dsps/overload.h"
#include "observability/export.h"
#include "observability/histogram.h"

namespace insight {
namespace dsps {

/// Per-component/task execution metrics, plus the periodic per-window
/// reports the paper's enhanced Storm produces ("we enhanced Storm with an
/// extra monitor thread per worker processor, that periodically (every 40
/// seconds in our case) reports these metrics for each bolt's task to the
/// Nimbus node", Section 5).
class MetricsRegistry {
 public:
  struct ComponentTotals {
    uint64_t executed = 0;
    uint64_t emitted = 0;
    double avg_latency_micros = 0.0;
    uint64_t latency_sum_micros = 0;
    // Reliability counters (spout components; zero without acking).
    uint64_t acked = 0;
    uint64_t failed = 0;    // tree timeouts
    uint64_t replayed = 0;  // re-emissions of timed-out roots
    // Recovery counters (zero unless checkpointing is on).
    uint64_t checkpoints = 0;         // snapshots durably persisted
    uint64_t checkpoint_restores = 0; // restores applied after a relaunch
    uint64_t checkpoint_restore_failures = 0;  // corrupt/unloadable snapshots
    uint64_t deduped = 0;             // replayed duplicates suppressed
    uint64_t breaker_trips = 0;       // executors permanently failed
    // Overload counters (zero unless overload protection is on). Sheds are
    // attributed to the component whose queue was saturated, per priority.
    uint64_t shed_low = 0;
    uint64_t shed_normal = 0;
    uint64_t shed_high = 0;
    // Elastic-scheduling counters (zero unless migration is enabled).
    uint64_t task_migrations = 0;     // completed live migrations (source task)
    uint64_t migration_failures = 0;  // aborted/rolled-back migrations
    /// Lifetime execute-latency distribution, merged across tasks.
    observability::HistogramSnapshot latency_histogram;

    /// What accumulated since `earlier`, a Totals() of the same component
    /// taken before this one (e.g. one run of a long-lived topology).
    ComponentTotals Since(const ComponentTotals& earlier) const;
  };

  struct WindowReport {
    /// Start of the window this report covers (previously this field held
    /// the window END, which made report timestamps unusable for aligning
    /// windows against event logs).
    MicrosT window_start = 0;
    MicrosT window_length_micros = 0;
    std::string component;
    uint64_t executed = 0;      // throughput: tuples processed in the window
    /// Mean execute latency over the window, weighted by per-task executed
    /// counts (latency-sum delta / executed delta — never an unweighted
    /// average of per-task averages). 0 for an empty window, never NaN.
    double avg_latency_micros = 0.0;
    /// Execute-latency percentiles over the window, from the merged
    /// per-task histogram deltas. 0 for an empty window.
    double p50_micros = 0.0;
    double p95_micros = 0.0;
    double p99_micros = 0.0;
    /// Storm's capacity metric: fraction of the window the component's
    /// tasks spent executing (executed × avg latency / window length).
    /// ~1.0 means the component is saturated and needs more executors.
    /// 0 for an empty window, never NaN.
    double capacity = 0.0;
    uint64_t acked = 0;
    uint64_t failed = 0;
    uint64_t replayed = 0;
    uint64_t checkpoints = 0;
    uint64_t checkpoint_restores = 0;
    uint64_t checkpoint_restore_failures = 0;
    uint64_t deduped = 0;
    uint64_t breaker_trips = 0;
    uint64_t shed = 0;       // tuples shed (all priorities)
    uint64_t task_migrations = 0;     // live migrations completed this window
    uint64_t migration_failures = 0;  // migrations aborted this window
  };

  /// Declares a component with `num_tasks` tasks. Must be called before any
  /// Record (the runtime does this at start-up; no locking on the hot path).
  void DeclareComponent(const std::string& component, int num_tasks);

  /// Records one execution for (component, task).
  void Record(const std::string& component, int task, MicrosT latency_micros);
  void RecordEmit(const std::string& component, int task, uint64_t count = 1);
  /// Reliability events, attributed to the originating spout task.
  void RecordAck(const std::string& component, int task, uint64_t count = 1);
  void RecordFail(const std::string& component, int task, uint64_t count = 1);
  void RecordReplay(const std::string& component, int task, uint64_t count = 1);
  /// Recovery events, attributed to the checkpointed (or tripped) task.
  void RecordCheckpoint(const std::string& component, int task);
  void RecordRestore(const std::string& component, int task);
  void RecordRestoreFailure(const std::string& component, int task);
  void RecordDedup(const std::string& component, int task);
  void RecordBreakerTrip(const std::string& component, int task);
  /// Overload event (see dsps/overload.h): a shed tuple, attributed to the
  /// component whose queue triggered the drop.
  void RecordShed(const std::string& component, int task,
                  TuplePriority priority);
  /// Elastic-scheduling events, attributed to the migration's source task.
  void RecordMigration(const std::string& component, int task);
  void RecordMigrationFailure(const std::string& component, int task);

  ComponentTotals Totals(const std::string& component) const;
  std::vector<std::string> Components() const;

  /// Per-task lifetime totals — the elastic controller polls these to build
  /// per-engine window deltas (component-level reports hide which task of a
  /// component is hot).
  struct TaskTotals {
    uint64_t executed = 0;
    uint64_t emitted = 0;
    uint64_t latency_sum_micros = 0;
    uint64_t shed = 0;  // all priorities
    observability::HistogramSnapshot latency_histogram;
  };
  TaskTotals TotalsForTask(const std::string& component, int task) const;
  /// Number of tasks declared for `component` (0 if unknown).
  int TaskCount(const std::string& component) const;

  /// Process-wide transport counters (src/net data plane). Unlabelled —
  /// frames are a property of the worker's connections, not of any one
  /// component — and zero in purely local runs.
  struct TransportTotals {
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t frames_received = 0;
    uint64_t bytes_received = 0;
    uint64_t reconnects = 0;       // data-plane connection (re)establishments
    uint64_t requeued_tuples = 0;  // in-flight tuples queued for resend
  };
  void RecordFramesSent(uint64_t frames, uint64_t bytes) {
    net_frames_sent_.fetch_add(frames, std::memory_order_relaxed);
    net_bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordFramesReceived(uint64_t frames, uint64_t bytes) {
    net_frames_received_.fetch_add(frames, std::memory_order_relaxed);
    net_bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordReconnect() {
    net_reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordRequeuedTuples(uint64_t count) {
    net_requeued_tuples_.fetch_add(count, std::memory_order_relaxed);
  }
  /// Wall time producers spent stalled waiting for flow-control credits
  /// (credit mode only); process-wide like the transport counters.
  void RecordCreditStall(uint64_t nanos) {
    credits_stalled_ns_.fetch_add(nanos, std::memory_order_relaxed);
  }
  uint64_t credits_stalled_ns() const {
    return credits_stalled_ns_.load(std::memory_order_relaxed);
  }

  TransportTotals transport_totals() const {
    TransportTotals totals;
    totals.frames_sent = net_frames_sent_.load(std::memory_order_relaxed);
    totals.bytes_sent = net_bytes_sent_.load(std::memory_order_relaxed);
    totals.frames_received =
        net_frames_received_.load(std::memory_order_relaxed);
    totals.bytes_received =
        net_bytes_received_.load(std::memory_order_relaxed);
    totals.reconnects = net_reconnects_.load(std::memory_order_relaxed);
    totals.requeued_tuples =
        net_requeued_tuples_.load(std::memory_order_relaxed);
    return totals;
  }

 private:
  struct TaskStats {
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> emitted{0};
    std::atomic<uint64_t> latency_sum{0};
    std::atomic<uint64_t> acked{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> replayed{0};
    std::atomic<uint64_t> checkpoints{0};
    std::atomic<uint64_t> restores{0};
    std::atomic<uint64_t> restore_failures{0};
    std::atomic<uint64_t> deduped{0};
    std::atomic<uint64_t> breaker_trips{0};
    std::atomic<uint64_t> shed_low{0};
    std::atomic<uint64_t> shed_normal{0};
    std::atomic<uint64_t> shed_high{0};
    std::atomic<uint64_t> migrations{0};
    std::atomic<uint64_t> migration_failures{0};
    observability::LatencyHistogram latency_histogram;
  };

 public:
  /// Hot-path recording handle: resolves (component, task) once so per-tuple
  /// recording touches only the cached counters, never the name map. The
  /// registry must outlive the handle, and DeclareComponent must not be
  /// called again for the component after handing out refs.
  class TaskRef {
   public:
    TaskRef() = default;
    void Record(MicrosT latency_micros) {
      stats_->executed.fetch_add(1, std::memory_order_relaxed);
      stats_->latency_sum.fetch_add(static_cast<uint64_t>(latency_micros),
                                    std::memory_order_relaxed);
      stats_->latency_histogram.Record(latency_micros);
    }
    void RecordEmit(uint64_t count) {
      stats_->emitted.fetch_add(count, std::memory_order_relaxed);
    }
    /// One tuple shed at this task's input queue (overload protection).
    void RecordShed(TuplePriority priority) {
      switch (priority) {
        case TuplePriority::kLow:
          stats_->shed_low.fetch_add(1, std::memory_order_relaxed);
          break;
        case TuplePriority::kNormal:
          stats_->shed_normal.fetch_add(1, std::memory_order_relaxed);
          break;
        case TuplePriority::kHigh:
          stats_->shed_high.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }

   private:
    friend class MetricsRegistry;
    explicit TaskRef(TaskStats* stats) : stats_(stats) {}
    TaskStats* stats_ = nullptr;
  };
  TaskRef RefFor(const std::string& component, int task) {
    return TaskRef(&StatsFor(component, task));
  }

  /// Anchors the first window so its capacity denominator is meaningful;
  /// the runtime calls this at Start(). Without it the first window reports
  /// capacity 0.
  void MarkWindowStart(MicrosT now);

  /// Aggregates deltas since the previous TakeWindowSnapshot into per-
  /// component window reports (the Nimbus-side aggregation).
  std::vector<WindowReport> TakeWindowSnapshot(MicrosT now);
  /// All window reports taken so far.
  std::vector<WindowReport> window_reports() const;

  /// Lifetime totals of every counter family plus the per-component
  /// execute-latency histogram, as a neutral snapshot for the text
  /// exporter (observability::ExportPrometheusText).
  observability::MetricsSnapshot PrometheusSnapshot() const;

 private:
  struct ComponentStats {
    std::vector<std::unique_ptr<TaskStats>> tasks;
    // The last_* window baselines are guarded by window_mutex_ (only
    // TakeWindowSnapshot touches them; the annotation cannot be expressed
    // on a sibling struct's members).
    uint64_t last_executed = 0;
    uint64_t last_latency_sum = 0;
    uint64_t last_acked = 0;
    uint64_t last_failed = 0;
    uint64_t last_replayed = 0;
    uint64_t last_checkpoints = 0;
    uint64_t last_restores = 0;
    uint64_t last_restore_failures = 0;
    uint64_t last_deduped = 0;
    uint64_t last_breaker_trips = 0;
    uint64_t last_shed = 0;
    uint64_t last_migrations = 0;
    uint64_t last_migration_failures = 0;
    observability::HistogramSnapshot last_histogram;
  };

  TaskStats& StatsFor(const std::string& component, int task);

  /// Structurally mutated only by DeclareComponent before the topology
  /// starts; concurrent phases read the map and bump the atomic counters.
  std::map<std::string, ComponentStats> components_;
  std::atomic<uint64_t> net_frames_sent_{0};
  std::atomic<uint64_t> net_bytes_sent_{0};
  std::atomic<uint64_t> net_frames_received_{0};
  std::atomic<uint64_t> net_bytes_received_{0};
  std::atomic<uint64_t> net_reconnects_{0};
  std::atomic<uint64_t> net_requeued_tuples_{0};
  std::atomic<uint64_t> credits_stalled_ns_{0};
  mutable Mutex window_mutex_{TMS_LOCK_RANK(70)};
  std::vector<WindowReport> reports_ GUARDED_BY(window_mutex_);
  MicrosT last_snapshot_micros_ GUARDED_BY(window_mutex_) = 0;
  bool window_anchored_ GUARDED_BY(window_mutex_) = false;
};

}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_METRICS_H_
