#include "dsps/metrics.h"

#include "common/logging.h"

namespace insight {
namespace dsps {

void MetricsRegistry::DeclareComponent(const std::string& component,
                                       int num_tasks) {
  ComponentStats& stats = components_[component];
  stats.tasks.clear();
  for (int i = 0; i < num_tasks; ++i) {
    stats.tasks.push_back(std::make_unique<TaskStats>());
  }
}

MetricsRegistry::TaskStats& MetricsRegistry::StatsFor(
    const std::string& component, int task) {
  auto it = components_.find(component);
  INSIGHT_CHECK(it != components_.end()) << "undeclared component " << component;
  return *it->second.tasks[static_cast<size_t>(task)];
}

void MetricsRegistry::Record(const std::string& component, int task,
                             MicrosT latency_micros) {
  TaskStats& stats = StatsFor(component, task);
  stats.executed.fetch_add(1, std::memory_order_relaxed);
  stats.latency_sum.fetch_add(static_cast<uint64_t>(latency_micros),
                              std::memory_order_relaxed);
  stats.latency_histogram.Record(latency_micros);
}

void MetricsRegistry::RecordEmit(const std::string& component, int task,
                                 uint64_t count) {
  StatsFor(component, task).emitted.fetch_add(count, std::memory_order_relaxed);
}

void MetricsRegistry::RecordAck(const std::string& component, int task,
                                uint64_t count) {
  StatsFor(component, task).acked.fetch_add(count, std::memory_order_relaxed);
}

void MetricsRegistry::RecordFail(const std::string& component, int task,
                                 uint64_t count) {
  StatsFor(component, task).failed.fetch_add(count, std::memory_order_relaxed);
}

void MetricsRegistry::RecordReplay(const std::string& component, int task,
                                   uint64_t count) {
  StatsFor(component, task).replayed.fetch_add(count,
                                               std::memory_order_relaxed);
}

void MetricsRegistry::RecordCheckpoint(const std::string& component, int task) {
  StatsFor(component, task).checkpoints.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::RecordRestore(const std::string& component, int task) {
  StatsFor(component, task).restores.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::RecordRestoreFailure(const std::string& component,
                                           int task) {
  StatsFor(component, task)
      .restore_failures.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::RecordDedup(const std::string& component, int task) {
  StatsFor(component, task).deduped.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::RecordBreakerTrip(const std::string& component,
                                        int task) {
  StatsFor(component, task)
      .breaker_trips.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::RecordShed(const std::string& component, int task,
                                 TuplePriority priority) {
  TaskStats& stats = StatsFor(component, task);
  switch (priority) {
    case TuplePriority::kLow:
      stats.shed_low.fetch_add(1, std::memory_order_relaxed);
      break;
    case TuplePriority::kNormal:
      stats.shed_normal.fetch_add(1, std::memory_order_relaxed);
      break;
    case TuplePriority::kHigh:
      stats.shed_high.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void MetricsRegistry::RecordMigration(const std::string& component, int task) {
  StatsFor(component, task).migrations.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::RecordMigrationFailure(const std::string& component,
                                             int task) {
  StatsFor(component, task)
      .migration_failures.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::ComponentTotals MetricsRegistry::Totals(
    const std::string& component) const {
  ComponentTotals totals;
  auto it = components_.find(component);
  if (it == components_.end()) return totals;
  for (const auto& task : it->second.tasks) {
    totals.executed += task->executed.load(std::memory_order_relaxed);
    totals.emitted += task->emitted.load(std::memory_order_relaxed);
    totals.latency_sum_micros += task->latency_sum.load(std::memory_order_relaxed);
    totals.acked += task->acked.load(std::memory_order_relaxed);
    totals.failed += task->failed.load(std::memory_order_relaxed);
    totals.replayed += task->replayed.load(std::memory_order_relaxed);
    totals.checkpoints += task->checkpoints.load(std::memory_order_relaxed);
    totals.checkpoint_restores += task->restores.load(std::memory_order_relaxed);
    totals.checkpoint_restore_failures +=
        task->restore_failures.load(std::memory_order_relaxed);
    totals.deduped += task->deduped.load(std::memory_order_relaxed);
    totals.breaker_trips +=
        task->breaker_trips.load(std::memory_order_relaxed);
    totals.shed_low += task->shed_low.load(std::memory_order_relaxed);
    totals.shed_normal += task->shed_normal.load(std::memory_order_relaxed);
    totals.shed_high += task->shed_high.load(std::memory_order_relaxed);
    totals.task_migrations += task->migrations.load(std::memory_order_relaxed);
    totals.migration_failures +=
        task->migration_failures.load(std::memory_order_relaxed);
    totals.latency_histogram.Merge(task->latency_histogram.Snapshot());
  }
  if (totals.executed > 0) {
    totals.avg_latency_micros = static_cast<double>(totals.latency_sum_micros) /
                                static_cast<double>(totals.executed);
  }
  return totals;
}

MetricsRegistry::ComponentTotals MetricsRegistry::ComponentTotals::Since(
    const ComponentTotals& earlier) const {
  ComponentTotals d = *this;
  for (uint64_t ComponentTotals::*field :
       {&ComponentTotals::executed, &ComponentTotals::emitted,
        &ComponentTotals::latency_sum_micros, &ComponentTotals::acked,
        &ComponentTotals::failed, &ComponentTotals::replayed,
        &ComponentTotals::checkpoints, &ComponentTotals::checkpoint_restores,
        &ComponentTotals::checkpoint_restore_failures, &ComponentTotals::deduped,
        &ComponentTotals::breaker_trips, &ComponentTotals::shed_low,
        &ComponentTotals::shed_normal, &ComponentTotals::shed_high,
        &ComponentTotals::task_migrations,
        &ComponentTotals::migration_failures}) {
    d.*field -= earlier.*field;
  }
  for (size_t i = 0; i < d.latency_histogram.counts.size(); ++i) {
    d.latency_histogram.counts[i] -= earlier.latency_histogram.counts[i];
  }
  d.avg_latency_micros = d.executed > 0
                             ? static_cast<double>(d.latency_sum_micros) /
                                   static_cast<double>(d.executed)
                             : 0.0;
  return d;
}

std::vector<std::string> MetricsRegistry::Components() const {
  std::vector<std::string> out;
  for (const auto& [name, stats] : components_) out.push_back(name);
  return out;
}

MetricsRegistry::TaskTotals MetricsRegistry::TotalsForTask(
    const std::string& component, int task) const {
  TaskTotals totals;
  auto it = components_.find(component);
  if (it == components_.end() || task < 0 ||
      static_cast<size_t>(task) >= it->second.tasks.size()) {
    return totals;
  }
  const TaskStats& stats = *it->second.tasks[static_cast<size_t>(task)];
  totals.executed = stats.executed.load(std::memory_order_relaxed);
  totals.emitted = stats.emitted.load(std::memory_order_relaxed);
  totals.latency_sum_micros =
      stats.latency_sum.load(std::memory_order_relaxed);
  totals.shed = stats.shed_low.load(std::memory_order_relaxed) +
                stats.shed_normal.load(std::memory_order_relaxed) +
                stats.shed_high.load(std::memory_order_relaxed);
  totals.latency_histogram = stats.latency_histogram.Snapshot();
  return totals;
}

int MetricsRegistry::TaskCount(const std::string& component) const {
  auto it = components_.find(component);
  if (it == components_.end()) return 0;
  return static_cast<int>(it->second.tasks.size());
}

void MetricsRegistry::MarkWindowStart(MicrosT now) {
  MutexLock lock(window_mutex_);
  last_snapshot_micros_ = now;
  window_anchored_ = true;
}

std::vector<MetricsRegistry::WindowReport> MetricsRegistry::TakeWindowSnapshot(
    MicrosT now) {
  MutexLock lock(window_mutex_);
  MicrosT window_length =
      (window_anchored_ && now > last_snapshot_micros_)
          ? now - last_snapshot_micros_
          : 0;
  std::vector<WindowReport> window;
  for (auto& [name, stats] : components_) {
    uint64_t executed = 0, latency_sum = 0, acked = 0, failed = 0,
             replayed = 0, checkpoints = 0, restores = 0, restore_failures = 0,
             deduped = 0, breaker_trips = 0, shed = 0,
             migrations = 0, migration_failures = 0;
    observability::HistogramSnapshot histogram;
    for (const auto& task : stats.tasks) {
      executed += task->executed.load(std::memory_order_relaxed);
      latency_sum += task->latency_sum.load(std::memory_order_relaxed);
      acked += task->acked.load(std::memory_order_relaxed);
      failed += task->failed.load(std::memory_order_relaxed);
      replayed += task->replayed.load(std::memory_order_relaxed);
      checkpoints += task->checkpoints.load(std::memory_order_relaxed);
      restores += task->restores.load(std::memory_order_relaxed);
      restore_failures +=
          task->restore_failures.load(std::memory_order_relaxed);
      deduped += task->deduped.load(std::memory_order_relaxed);
      breaker_trips += task->breaker_trips.load(std::memory_order_relaxed);
      shed += task->shed_low.load(std::memory_order_relaxed) +
              task->shed_normal.load(std::memory_order_relaxed) +
              task->shed_high.load(std::memory_order_relaxed);
      migrations += task->migrations.load(std::memory_order_relaxed);
      migration_failures +=
          task->migration_failures.load(std::memory_order_relaxed);
      histogram.Merge(task->latency_histogram.Snapshot());
    }
    WindowReport report;
    report.window_start = window_anchored_ ? last_snapshot_micros_ : now;
    report.window_length_micros = window_length;
    report.component = name;
    report.executed = executed - stats.last_executed;
    uint64_t latency_delta = latency_sum - stats.last_latency_sum;
    if (report.executed > 0) {
      // Weighted by construction: the summed latency delta over the summed
      // executed delta, never an average of per-task averages.
      report.avg_latency_micros = static_cast<double>(latency_delta) /
                                  static_cast<double>(report.executed);
    }
    // Per-window latency distribution: the element-wise delta of the merged
    // cumulative histogram against the previous window's merge (bucket
    // counts only grow, so the subtraction is exact).
    observability::HistogramSnapshot delta;
    for (size_t i = 0; i < observability::HistogramSnapshot::kNumBuckets;
         ++i) {
      delta.counts[i] = histogram.counts[i] - stats.last_histogram.counts[i];
    }
    report.p50_micros = delta.Percentile(50.0);
    report.p95_micros = delta.Percentile(95.0);
    report.p99_micros = delta.Percentile(99.0);
    if (window_length > 0) {
      // Storm's capacity = executed × avg latency / window length: the
      // busy-fraction of the window (Section 5's monitor metric, consumed
      // by the allocation model as the saturation signal).
      report.capacity = static_cast<double>(latency_delta) /
                        static_cast<double>(window_length);
    }
    report.acked = acked - stats.last_acked;
    report.failed = failed - stats.last_failed;
    report.replayed = replayed - stats.last_replayed;
    report.checkpoints = checkpoints - stats.last_checkpoints;
    report.checkpoint_restores = restores - stats.last_restores;
    report.checkpoint_restore_failures =
        restore_failures - stats.last_restore_failures;
    report.deduped = deduped - stats.last_deduped;
    report.breaker_trips = breaker_trips - stats.last_breaker_trips;
    report.shed = shed - stats.last_shed;
    report.task_migrations = migrations - stats.last_migrations;
    report.migration_failures =
        migration_failures - stats.last_migration_failures;
    stats.last_executed = executed;
    stats.last_latency_sum = latency_sum;
    stats.last_acked = acked;
    stats.last_failed = failed;
    stats.last_replayed = replayed;
    stats.last_checkpoints = checkpoints;
    stats.last_restores = restores;
    stats.last_restore_failures = restore_failures;
    stats.last_deduped = deduped;
    stats.last_breaker_trips = breaker_trips;
    stats.last_shed = shed;
    stats.last_migrations = migrations;
    stats.last_migration_failures = migration_failures;
    stats.last_histogram = histogram;
    window.push_back(report);
    reports_.push_back(window.back());
  }
  last_snapshot_micros_ = now;
  window_anchored_ = true;
  return window;
}

std::vector<MetricsRegistry::WindowReport> MetricsRegistry::window_reports()
    const {
  MutexLock lock(window_mutex_);
  return reports_;
}

observability::MetricsSnapshot MetricsRegistry::PrometheusSnapshot() const {
  observability::MetricsSnapshot snapshot;
  struct CounterSpec {
    const char* name;
    const char* help;
    uint64_t ComponentTotals::* field;
  };
  static constexpr CounterSpec kCounters[] = {
      {"insight_tuples_executed_total", "Tuples executed",
       &ComponentTotals::executed},
      {"insight_tuples_emitted_total", "Tuples emitted",
       &ComponentTotals::emitted},
      {"insight_tuples_acked_total", "Tuple trees fully acked",
       &ComponentTotals::acked},
      {"insight_tuples_failed_total", "Tuple trees failed (timeout)",
       &ComponentTotals::failed},
      {"insight_tuples_replayed_total", "Root tuples re-emitted",
       &ComponentTotals::replayed},
      {"insight_checkpoints_total", "State snapshots durably persisted",
       &ComponentTotals::checkpoints},
      {"insight_checkpoint_restores_total",
       "State restores applied after a relaunch",
       &ComponentTotals::checkpoint_restores},
      {"insight_checkpoint_restore_failures_total",
       "Corrupt or unloadable snapshots",
       &ComponentTotals::checkpoint_restore_failures},
      {"insight_tuples_deduped_total", "Replayed duplicates suppressed",
       &ComponentTotals::deduped},
      {"insight_breaker_trips_total", "Executors permanently failed",
       &ComponentTotals::breaker_trips},
      {"insight_task_migrations_total", "Live task migrations completed",
       &ComponentTotals::task_migrations},
      {"insight_migration_failures_total",
       "Live task migrations aborted and rolled back",
       &ComponentTotals::migration_failures},
  };
  std::vector<std::string> names = Components();
  std::vector<ComponentTotals> totals;
  totals.reserve(names.size());
  for (const std::string& name : names) totals.push_back(Totals(name));
  for (const CounterSpec& spec : kCounters) {
    observability::CounterFamily family;
    family.name = spec.name;
    family.help = spec.help;
    for (size_t i = 0; i < names.size(); ++i) {
      family.samples.push_back({"component=\"" + names[i] + "\"",
                                static_cast<double>(totals[i].*spec.field)});
    }
    snapshot.counters.push_back(std::move(family));
  }
  // Overload families (see dsps/overload.h): sheds carry a priority label on
  // top of the component label. Emitted even when overload protection is off
  // (all-zero) so dashboards never lose the series.
  {
    observability::CounterFamily shed;
    shed.name = "insight_tuples_shed_total";
    shed.help = "Tuples dropped by priority-aware load shedding";
    struct ShedSpec {
      const char* priority;
      uint64_t ComponentTotals::* field;
    };
    static constexpr ShedSpec kShed[] = {
        {"low", &ComponentTotals::shed_low},
        {"normal", &ComponentTotals::shed_normal},
        {"high", &ComponentTotals::shed_high},
    };
    for (size_t i = 0; i < names.size(); ++i) {
      for (const ShedSpec& spec : kShed) {
        shed.samples.push_back(
            {"component=\"" + names[i] + "\",priority=\"" + spec.priority +
                 "\"",
             static_cast<double>(totals[i].*spec.field)});
      }
    }
    snapshot.counters.push_back(std::move(shed));
    observability::CounterFamily stalled;
    stalled.name = "insight_credits_stalled_ns_total";
    stalled.help = "Producer wall time stalled awaiting flow-control credits";
    stalled.samples.push_back(
        {"", static_cast<double>(credits_stalled_ns())});
    snapshot.counters.push_back(std::move(stalled));
  }
  // Transport counter families: process-wide (unlabelled) so the exporter
  // stays complete when the registry belongs to a distributed worker.
  struct TransportSpec {
    const char* name;
    const char* help;
    uint64_t TransportTotals::* field;
  };
  static constexpr TransportSpec kTransport[] = {
      {"insight_net_frames_sent_total", "Data-plane frames sent",
       &TransportTotals::frames_sent},
      {"insight_net_bytes_sent_total", "Data-plane bytes sent",
       &TransportTotals::bytes_sent},
      {"insight_net_frames_received_total", "Data-plane frames received",
       &TransportTotals::frames_received},
      {"insight_net_bytes_received_total", "Data-plane bytes received",
       &TransportTotals::bytes_received},
      {"insight_net_reconnects_total",
       "Data-plane connection (re)establishments",
       &TransportTotals::reconnects},
      {"insight_net_requeued_tuples_total",
       "In-flight tuples requeued for retransmission",
       &TransportTotals::requeued_tuples},
  };
  TransportTotals transport = transport_totals();
  for (const TransportSpec& spec : kTransport) {
    observability::CounterFamily family;
    family.name = spec.name;
    family.help = spec.help;
    family.samples.push_back(
        {"", static_cast<double>(transport.*spec.field)});
    snapshot.counters.push_back(std::move(family));
  }
  observability::HistogramFamily latency;
  latency.name = "insight_execute_latency_micros";
  latency.help = "Per-tuple execute latency, microseconds";
  for (size_t i = 0; i < names.size(); ++i) {
    latency.samples.push_back(
        {"component=\"" + names[i] + "\"", totals[i].latency_histogram,
         static_cast<double>(totals[i].latency_sum_micros)});
  }
  snapshot.histograms.push_back(std::move(latency));
  return snapshot;
}

}  // namespace dsps
}  // namespace insight
