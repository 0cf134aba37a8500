#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <future>
#include <map>
#include <set>
#include <thread>

#include "observability/export.h"

#include "dsps/local_runtime.h"
#include "dsps/topology.h"
#include "common/strings.h"
#include "common/thread.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dsps/xml_topology.h"

namespace insight {
namespace dsps {
namespace {

/// Emits the integers [0, n).
class CounterSpout : public Spout {
 public:
  explicit CounterSpout(int n) : n_(n) {}
  void Open(const TaskContext& context) override {
    next_ = context.task_index;
    stride_ = context.num_tasks;
  }
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->Emit({Value(int64_t{next_})});
    next_ += stride_;
    return next_ < n_;
  }

 private:
  int n_;
  int next_ = 0;
  int stride_ = 1;
};

/// Collects every value it sees into a shared sink.
class SinkBolt : public Bolt {
 public:
  struct Sink {
    Mutex mutex;
    std::vector<int64_t> values;
    std::map<int, int> per_task_counts;
  };
  SinkBolt(std::shared_ptr<Sink> sink) : sink_(std::move(sink)) {}
  void Prepare(const TaskContext& context) override { task_ = context.task_index; }
  void Execute(const Tuple& input, Collector*) override {
    MutexLock lock(sink_->mutex);
    sink_->values.push_back(input.Get(0).AsInt());
    sink_->per_task_counts[task_]++;
  }

 private:
  std::shared_ptr<Sink> sink_;
  int task_ = 0;
};

/// Doubles its input value.
class DoubleBolt : public Bolt {
 public:
  void Execute(const Tuple& input, Collector* collector) override {
    collector->Emit({Value(input.Get(0).AsInt() * 2)});
  }
};

// ---------------------------------------------------------------------------
// Topology validation
// ---------------------------------------------------------------------------

TEST(TopologyBuilderTest, ValidTopology) {
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(1); },
                   Fields({"v"}), 2, 4);
  builder.SetBolt("b", [] { return std::make_unique<DoubleBolt>(); },
                  Fields({"v"}), 2)
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  EXPECT_EQ(topology->total_tasks(), 6);
  EXPECT_EQ(topology->total_executors(), 4);
  EXPECT_EQ(topology->Subscribers("s").size(), 1u);
}

TEST(TopologyBuilderTest, RejectsExecutorsExceedingTasks) {
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(1); },
                   Fields({"v"}), 4, 2);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(TopologyBuilderTest, RejectsUnknownSource) {
  TopologyBuilder builder;
  builder.SetBolt("b", [] { return std::make_unique<DoubleBolt>(); },
                  Fields({"v"}))
      .ShuffleGrouping("ghost");
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kNotFound);
}

TEST(TopologyBuilderTest, RejectsUnknownGroupingField) {
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(1); },
                   Fields({"v"}));
  builder.SetBolt("b", [] { return std::make_unique<DoubleBolt>(); },
                  Fields({"v"}))
      .FieldsGrouping("s", {"nope"});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(TopologyBuilderTest, RejectsCycle) {
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(1); },
                   Fields({"v"}));
  builder.SetBolt("a", [] { return std::make_unique<DoubleBolt>(); },
                  Fields({"v"}))
      .ShuffleGrouping("s")
      .ShuffleGrouping("b");
  builder.SetBolt("b", [] { return std::make_unique<DoubleBolt>(); },
                  Fields({"v"}))
      .ShuffleGrouping("a");
  EXPECT_FALSE(builder.Build().ok());
}

TEST(TopologyBuilderTest, RejectsDuplicateNames) {
  TopologyBuilder builder;
  builder.SetSpout("x", [] { return std::make_unique<CounterSpout>(1); },
                   Fields({"v"}));
  builder.SetBolt("x", [] { return std::make_unique<DoubleBolt>(); },
                  Fields({"v"}))
      .ShuffleGrouping("x");
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kAlreadyExists);
}

// ---------------------------------------------------------------------------
// LocalRuntime
// ---------------------------------------------------------------------------

TEST(LocalRuntimeTest, DeliversEveryTupleOnce) {
  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(1000); },
                   Fields({"v"}), 2, 2);
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}), 3)
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  std::set<int64_t> seen(sink->values.begin(), sink->values.end());
  EXPECT_EQ(sink->values.size(), 1000u);
  EXPECT_EQ(seen.size(), 1000u);
  // Shuffle grouping spreads across the 3 tasks.
  EXPECT_EQ(sink->per_task_counts.size(), 3u);
  auto totals = runtime.metrics()->Totals("sink");
  EXPECT_EQ(totals.executed, 1000u);
}

TEST(LocalRuntimeTest, ChainOfBoltsTransforms) {
  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(100); },
                   Fields({"v"}));
  builder.SetBolt("x2", [] { return std::make_unique<DoubleBolt>(); },
                  Fields({"v"}), 2)
      .ShuffleGrouping("s");
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}))
      .ShuffleGrouping("x2");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  int64_t sum = 0;
  for (int64_t v : sink->values) sum += v;
  EXPECT_EQ(sum, 2 * 100 * 99 / 2);
}

TEST(LocalRuntimeTest, FieldsGroupingRoutesConsistently) {
  // With fields grouping on the key, every tuple of the same key must land
  // on the same task.
  struct KeyState {
    Mutex mutex;
    std::map<int64_t, std::set<int>> tasks_per_key;
  };
  auto state = std::make_shared<KeyState>();
  struct KeyTracker : public Bolt {
    std::shared_ptr<KeyState> state;
    int task = 0;
    explicit KeyTracker(std::shared_ptr<KeyState> s) : state(std::move(s)) {}
    void Prepare(const TaskContext& context) override {
      task = context.task_index;
    }
    void Execute(const Tuple& input, Collector*) override {
      MutexLock lock(state->mutex);
      state->tasks_per_key[input.Get(0).AsInt()].insert(task);
    }
  };
  struct ModSpout : public Spout {
    int next = 0;
    bool NextTuple(Collector* collector) override {
      if (next >= 500) return false;
      collector->Emit({Value(int64_t{next % 10})});
      ++next;
      return next < 500;
    }
  };
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<ModSpout>(); },
                   Fields({"key"}));
  builder.SetBolt("t", [state] { return std::make_unique<KeyTracker>(state); },
                  Fields({}), 4)
      .FieldsGrouping("s", {"key"});
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  EXPECT_EQ(state->tasks_per_key.size(), 10u);
  for (const auto& [key, tasks] : state->tasks_per_key) {
    EXPECT_EQ(tasks.size(), 1u) << "key " << key << " visited multiple tasks";
  }
}

TEST(LocalRuntimeTest, AllGroupingReplicatesToEveryTask) {
  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(50); },
                   Fields({"v"}));
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}), 4)
      .AllGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  EXPECT_EQ(sink->values.size(), 200u);  // 50 x 4 tasks
  for (const auto& [task, count] : sink->per_task_counts) {
    EXPECT_EQ(count, 50);
  }
}

TEST(LocalRuntimeTest, DirectGroupingHitsChosenTask) {
  // Router bolt sends even values to task 0, odd to task 1.
  struct RouterBolt : public Bolt {
    void Execute(const Tuple& input, Collector* collector) override {
      int64_t v = input.Get(0).AsInt();
      collector->EmitDirect(static_cast<int>(v % 2), {Value(v)});
    }
  };
  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(100); },
                   Fields({"v"}));
  builder.SetBolt("r", [] { return std::make_unique<RouterBolt>(); },
                  Fields({"v"}))
      .ShuffleGrouping("s");
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}), 2)
      .DirectGrouping("r");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  ASSERT_EQ(sink->values.size(), 100u);
  EXPECT_EQ(sink->per_task_counts[0], 50);
  EXPECT_EQ(sink->per_task_counts[1], 50);
}

TEST(LocalRuntimeTest, PseudoParallelTasksShareExecutor) {
  // 4 tasks on 2 executors (Figure 1's SpeedCalculatorBolt situation).
  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(400); },
                   Fields({"v"}));
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}), 2, 4)
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  EXPECT_EQ(sink->values.size(), 400u);
  EXPECT_EQ(sink->per_task_counts.size(), 4u);  // all 4 tasks ran
}

TEST(LocalRuntimeTest, StopWithoutCompletion) {
  // An endless spout: Stop() must terminate promptly.
  struct EndlessSpout : public Spout {
    bool NextTuple(Collector* collector) override {
      collector->Emit({Value(int64_t{1})});
      return true;
    }
  };
  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<EndlessSpout>(); },
                   Fields({"v"}));
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  while (runtime.metrics()->Totals("sink").executed < 100) {
  }
  runtime.Stop();
  EXPECT_GE(sink->values.size(), 100u);
}

TEST(LocalRuntimeTest, MonitorThreadTakesWindowSnapshots) {
  // The paper's 40-second monitor windows, shrunk for the test: the monitor
  // thread must produce per-component window reports while the topology
  // runs.
  struct SlowishSpout : public Spout {
    int next = 0;
    bool NextTuple(Collector* collector) override {
      if (next >= 2000) return false;
      collector->Emit({Value(int64_t{next})});
      ++next;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      return next < 2000;
    }
  };
  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<SlowishSpout>(); },
                   Fields({"v"}));
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.monitor_interval_micros = 40'000;  // 40 ms windows
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  auto reports = runtime.metrics()->window_reports();
  ASSERT_GE(reports.size(), 2u);
  uint64_t windowed_total = 0;
  for (const auto& report : reports) {
    if (report.component == "sink") windowed_total += report.executed;
  }
  EXPECT_LE(windowed_total, 2000u);
  EXPECT_GT(windowed_total, 0u);
}

TEST(LocalRuntimeTest, StopWakesEmittersBlockedOnBackpressure) {
  // Regression: with a full TaskQueue the emitter blocks in Push on
  // `not_full`. Stop() must wake that waiter (notify under the queue lock,
  // or the wakeup can be lost) so shutdown never deadlocks under
  // backpressure.
  struct FastSpout : public Spout {
    bool NextTuple(Collector* collector) override {
      collector->Emit({Value(int64_t{1})});
      return true;
    }
  };
  struct SlowBolt : public Bolt {
    void Execute(const Tuple&, Collector*) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<FastSpout>(); },
                   Fields({"v"}));
  builder.SetBolt("slow", [] { return std::make_unique<SlowBolt>(); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.queue_capacity = 4;  // tiny: the spout is blocked almost instantly
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto stopped = std::async(std::launch::async, [&] { runtime.Stop(); });
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(20)),
            std::future_status::ready)
      << "Stop() deadlocked with an emitter blocked on a full queue";
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, ConcurrentRecordsConsistentAcrossWindows) {
  // TakeWindowSnapshot races with Record callers: window deltas must never
  // go negative (underflow would read as a huge uint64) and must never
  // double-count — the windows plus nothing else partition the totals.
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50'000;
  constexpr MicrosT kLatency = 3;
  MetricsRegistry registry;
  registry.DeclareComponent("c", kThreads);
  std::atomic<bool> go{false};
  std::vector<Thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        registry.Record("c", t, kLatency);
      }
    });
  }
  go.store(true);
  for (int i = 0; i < 50; ++i) {
    registry.TakeWindowSnapshot(static_cast<MicrosT>(i + 1) * 1000);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& w : workers) w.join();
  registry.TakeWindowSnapshot(1'000'000);  // flush the tail

  constexpr uint64_t kTotal = kThreads * kPerThread;
  uint64_t windowed_executed = 0;
  double windowed_latency_sum = 0;
  for (const auto& report : registry.window_reports()) {
    EXPECT_LE(report.executed, kTotal) << "window delta under/overflowed";
    EXPECT_GE(report.avg_latency_micros, 0.0);
    windowed_executed += report.executed;
    windowed_latency_sum +=
        report.avg_latency_micros * static_cast<double>(report.executed);
  }
  EXPECT_EQ(windowed_executed, kTotal);
  EXPECT_DOUBLE_EQ(windowed_latency_sum,
                   static_cast<double>(kTotal * kLatency));
  EXPECT_EQ(registry.Totals("c").executed, kTotal);
}

TEST(MetricsRegistryTest, WindowCapacityIsBusyFraction) {
  // Storm's capacity: executed × avg latency / window length. 10 executions
  // of 1 ms inside a 20 ms window = 0.5 — half the window spent busy.
  MetricsRegistry registry;
  registry.DeclareComponent("b", 1);
  registry.MarkWindowStart(0);
  for (int i = 0; i < 10; ++i) registry.Record("b", 0, 1'000);
  auto window = registry.TakeWindowSnapshot(20'000);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].executed, 10u);
  EXPECT_DOUBLE_EQ(window[0].avg_latency_micros, 1'000.0);
  EXPECT_DOUBLE_EQ(window[0].capacity, 0.5);

  // An idle window reports capacity 0.
  auto idle = registry.TakeWindowSnapshot(40'000);
  ASSERT_EQ(idle.size(), 1u);
  EXPECT_DOUBLE_EQ(idle[0].capacity, 0.0);
}

TEST(MetricsRegistryTest, EmptyWindowReportsZerosNotNaN) {
  // Regression: a window with executed == 0 used to divide by zero, leaking
  // NaN into avg latency and capacity (and from there into anything that
  // aggregates reports — NaN != NaN makes such bugs invisible to EXPECT_EQ,
  // so check with isnan explicitly).
  MetricsRegistry registry;
  registry.DeclareComponent("idle", 2);
  registry.MarkWindowStart(0);
  auto window = registry.TakeWindowSnapshot(40'000'000);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].executed, 0u);
  EXPECT_FALSE(std::isnan(window[0].avg_latency_micros));
  EXPECT_FALSE(std::isnan(window[0].capacity));
  EXPECT_DOUBLE_EQ(window[0].avg_latency_micros, 0.0);
  EXPECT_DOUBLE_EQ(window[0].capacity, 0.0);
  EXPECT_DOUBLE_EQ(window[0].p50_micros, 0.0);
  EXPECT_DOUBLE_EQ(window[0].p95_micros, 0.0);
  EXPECT_DOUBLE_EQ(window[0].p99_micros, 0.0);
  EXPECT_EQ(window[0].window_start, 0);
  EXPECT_EQ(window[0].window_length_micros, 40'000'000);
}

TEST(MetricsRegistryTest, WindowAverageWeightsTasksByExecutions) {
  // Regression: the window average must weight each task by its executed
  // count. Task 0: 1000 × 10 us; task 1: 10 × 1000 us. Weighted mean is
  // (1000·10 + 10·1000) / 1010 ≈ 19.8 us; the buggy unweighted average of
  // per-task averages would report (10 + 1000) / 2 = 505 us — off by 25×.
  MetricsRegistry registry;
  registry.DeclareComponent("skewed", 2);
  registry.MarkWindowStart(0);
  for (int i = 0; i < 1000; ++i) registry.Record("skewed", 0, 10);
  for (int i = 0; i < 10; ++i) registry.Record("skewed", 1, 1'000);
  auto window = registry.TakeWindowSnapshot(1'000'000);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].executed, 1010u);
  EXPECT_NEAR(window[0].avg_latency_micros, 20'000.0 / 1010.0, 1e-9);
  EXPECT_LT(window[0].avg_latency_micros, 30.0);
}

TEST(MetricsRegistryTest, WindowPercentilesComeFromWindowDeltas) {
  // Percentiles are computed from the histogram delta of the window, not
  // the lifetime histogram: a second window full of slow executions must
  // not be dragged down by the first window's fast ones.
  MetricsRegistry registry;
  registry.DeclareComponent("c", 1);
  registry.MarkWindowStart(0);
  for (int i = 0; i < 100; ++i) registry.Record("c", 0, 3);
  auto first = registry.TakeWindowSnapshot(1'000'000);
  ASSERT_EQ(first.size(), 1u);
  // 100 observations in the (2, 5] bucket: median interpolates to 3.5.
  EXPECT_DOUBLE_EQ(first[0].p50_micros, 3.5);

  for (int i = 0; i < 100; ++i) registry.Record("c", 0, 700);
  auto second = registry.TakeWindowSnapshot(2'000'000);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_GT(second[0].p50_micros, 500.0);  // (500, 1000] bucket only
  EXPECT_LE(second[0].p50_micros, 1000.0);
  EXPECT_LE(second[0].p50_micros, second[0].p95_micros);
  EXPECT_LE(second[0].p95_micros, second[0].p99_micros);
  EXPECT_EQ(second[0].window_start, 1'000'000);
  EXPECT_EQ(second[0].window_length_micros, 1'000'000);
  // Lifetime totals still see both windows merged.
  auto totals = registry.Totals("c");
  EXPECT_EQ(totals.latency_histogram.total(), 200u);
}

TEST(MetricsRegistryTest, WindowReportCarriesRecoveryCounters) {
  // Recovery activity (checkpoints, dedup suppressions, restores) must
  // surface in the same per-window reports as throughput, and reset with
  // each window like every other delta.
  MetricsRegistry registry;
  registry.DeclareComponent("stateful", 2);
  registry.MarkWindowStart(0);
  registry.RecordCheckpoint("stateful", 0);
  registry.RecordCheckpoint("stateful", 1);
  registry.RecordRestore("stateful", 0);
  registry.RecordRestoreFailure("stateful", 1);
  registry.RecordDedup("stateful", 0);
  registry.RecordDedup("stateful", 0);
  registry.RecordDedup("stateful", 1);
  auto window = registry.TakeWindowSnapshot(1'000'000);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].checkpoints, 2u);
  EXPECT_EQ(window[0].checkpoint_restores, 1u);
  EXPECT_EQ(window[0].checkpoint_restore_failures, 1u);
  EXPECT_EQ(window[0].deduped, 3u);

  // Next window: all recovery deltas are back to zero.
  auto next = registry.TakeWindowSnapshot(2'000'000);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].checkpoints, 0u);
  EXPECT_EQ(next[0].checkpoint_restores, 0u);
  EXPECT_EQ(next[0].checkpoint_restore_failures, 0u);
  EXPECT_EQ(next[0].deduped, 0u);
  // Lifetime totals keep accumulating.
  auto totals = registry.Totals("stateful");
  EXPECT_EQ(totals.checkpoints, 2u);
  EXPECT_EQ(totals.deduped, 3u);
}

TEST(MetricsRegistryTest, PrometheusSnapshotExportsEveryFamily) {
  // The exporter must see every registered counter family plus the latency
  // histogram — a family silently missing from the export is precisely the
  // kind of regression a dashboard never notices.
  MetricsRegistry registry;
  registry.DeclareComponent("spout", 1);
  registry.DeclareComponent("bolt", 1);
  registry.Record("bolt", 0, 42);
  registry.RecordEmit("spout", 0, 2);
  registry.RecordAck("spout", 0);
  registry.RecordFail("spout", 0);
  registry.RecordReplay("spout", 0);
  registry.RecordCheckpoint("bolt", 0);
  registry.RecordRestore("bolt", 0);
  registry.RecordRestoreFailure("bolt", 0);
  registry.RecordDedup("bolt", 0);
  registry.RecordFramesSent(3, 1200);
  registry.RecordFramesReceived(2, 800);
  registry.RecordReconnect();
  registry.RecordRequeuedTuples(7);
  registry.RecordShed("bolt", 0, TuplePriority::kLow);
  registry.RecordShed("bolt", 0, TuplePriority::kLow);
  registry.RecordShed("bolt", 0, TuplePriority::kNormal);

  std::string text =
      observability::ExportPrometheusText(registry.PrometheusSnapshot());
  for (const char* family : {
           "insight_tuples_executed_total",
           "insight_tuples_emitted_total",
           "insight_tuples_acked_total",
           "insight_tuples_failed_total",
           "insight_tuples_replayed_total",
           "insight_checkpoints_total",
           "insight_checkpoint_restores_total",
           "insight_checkpoint_restore_failures_total",
           "insight_tuples_deduped_total",
           "insight_execute_latency_micros",
           "insight_net_frames_sent_total",
           "insight_net_bytes_sent_total",
           "insight_net_frames_received_total",
           "insight_net_bytes_received_total",
           "insight_net_reconnects_total",
           "insight_net_requeued_tuples_total",
           "insight_tuples_shed_total",
       }) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family), std::string::npos)
        << "family missing from export: " << family;
  }
  // Samples carry component labels and real values.
  EXPECT_NE(text.find("insight_tuples_executed_total{component=\"bolt\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("insight_execute_latency_micros_count{component=\"bolt\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("insight_execute_latency_micros_sum{component=\"bolt\"}"
                      " 42"),
            std::string::npos);
  // Transport counters are unlabelled process-wide totals.
  EXPECT_NE(text.find("insight_net_frames_sent_total 3"), std::string::npos);
  EXPECT_NE(text.find("insight_net_bytes_sent_total 1200"), std::string::npos);
  EXPECT_NE(text.find("insight_net_frames_received_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("insight_net_bytes_received_total 800"),
            std::string::npos);
  EXPECT_NE(text.find("insight_net_reconnects_total 1"), std::string::npos);
  EXPECT_NE(text.find("insight_net_requeued_tuples_total 7"),
            std::string::npos);
  // Overload family: shed carries component + priority labels.
  EXPECT_NE(text.find("insight_tuples_shed_total{component=\"bolt\","
                      "priority=\"low\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("insight_tuples_shed_total{component=\"bolt\","
                      "priority=\"normal\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("insight_tuples_shed_total{component=\"bolt\","
                      "priority=\"high\"} 0"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// XML topology loading
// ---------------------------------------------------------------------------

TEST(XmlTopologyTest, LoadsComponentsAndRules) {
  ComponentRegistry registry;
  ASSERT_TRUE(registry
                  .RegisterSpout("CounterSpout",
                                 [](const XmlNode& node) -> Result<SpoutFactory> {
                                   INSIGHT_ASSIGN_OR_RETURN(
                                       std::string n, XmlParam(node, "count"));
                                   INSIGHT_ASSIGN_OR_RETURN(long long count,
                                                            insight::ParseInt(n));
                                   return SpoutFactory([count] {
                                     return std::make_unique<CounterSpout>(
                                         static_cast<int>(count));
                                   });
                                 })
                  .ok());
  ASSERT_TRUE(registry
                  .RegisterBolt("DoubleBolt",
                                [](const XmlNode&) -> Result<BoltFactory> {
                                  return BoltFactory([] {
                                    return std::make_unique<DoubleBolt>();
                                  });
                                })
                  .ok());

  auto loaded = LoadTopologyFromXml(R"(
    <topology name="test">
      <spout name="numbers" type="CounterSpout" executors="2" fields="v">
        <param key="count" value="10"/>
      </spout>
      <bolt name="doubler" type="DoubleBolt" executors="1" fields="v">
        <subscribe source="numbers" grouping="shuffle"/>
      </bolt>
      <rules>
        <rule name="r1"><![CDATA[SELECT * FROM bus WHERE delay > 100]]></rule>
        <rule name="r2">SELECT * FROM bus</rule>
      </rules>
    </topology>)",
                                    registry);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->topology.components().size(), 2u);
  EXPECT_EQ(loaded->topology.Find("numbers")->num_executors, 2);
  ASSERT_EQ(loaded->rules.size(), 2u);
  EXPECT_EQ(loaded->rules[0].first, "r1");
  EXPECT_NE(loaded->rules[0].second.find("delay > 100"), std::string::npos);
}

TEST(XmlTopologyTest, UnknownTypeFails) {
  ComponentRegistry registry;
  auto loaded = LoadTopologyFromXml(
      "<topology><spout name='s' type='Ghost' fields='v'/></topology>",
      registry);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(XmlTopologyTest, BadGroupingFails) {
  ComponentRegistry registry;
  ASSERT_TRUE(registry
                  .RegisterSpout("S",
                                 [](const XmlNode&) -> Result<SpoutFactory> {
                                   return SpoutFactory([] {
                                     return std::make_unique<CounterSpout>(1);
                                   });
                                 })
                  .ok());
  ASSERT_TRUE(registry
                  .RegisterBolt("B",
                                [](const XmlNode&) -> Result<BoltFactory> {
                                  return BoltFactory([] {
                                    return std::make_unique<DoubleBolt>();
                                  });
                                })
                  .ok());
  auto loaded = LoadTopologyFromXml(R"(
    <topology>
      <spout name="s" type="S" fields="v"/>
      <bolt name="b" type="B" fields="v">
        <subscribe source="s" grouping="zigzag"/>
      </bolt>
    </topology>)",
                                    registry);
  EXPECT_FALSE(loaded.ok());
}

// ---------------------------------------------------------------------------
// Spout crash injection
// ---------------------------------------------------------------------------

TEST(LocalRuntimeTest, SpoutCrashMidStreamIsRestartedWithoutLoss) {
  // Kill the spout executor between two NextTuple calls (the spout fault
  // point flushes the outbox before dying, and the supervisor relaunches
  // the executor around the surviving spout instance), so the stream
  // resumes at the cursor: every value still arrives exactly once, without
  // acking.
  constexpr int kTuples = 500;
  reliability::FaultPlan plan;
  plan.crashes.push_back({.component = "s", .task = 0,
                          .after_executions = 50, .repeat = false});
  reliability::FaultInjector injector(plan);

  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [=] { return std::make_unique<CounterSpout>(kTuples); },
                   Fields({"v"}));
  builder.SetBolt("b", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.fault_injector = &injector;
  options.supervisor_interval_micros = 1'000;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(injector.crashes_injected(), 1u);
  EXPECT_GE(runtime.executor_restarts(), 1u);
  MutexLock lock(sink->mutex);
  EXPECT_EQ(sink->values.size(), static_cast<size_t>(kTuples));
  std::set<int64_t> distinct(sink->values.begin(), sink->values.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kTuples));
}

TEST(LocalRuntimeTest, RepeatedSpoutCrashesStillDrainTheStream) {
  // A spout that dies every 100 opportunities across a multi-task component:
  // each relaunch resumes all tasks of the executor.
  constexpr int kTuples = 600;
  reliability::FaultPlan plan;
  plan.crashes.push_back({.component = "s", .task = -1,
                          .after_executions = 100, .repeat = true});
  reliability::FaultInjector injector(plan);

  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [=] { return std::make_unique<CounterSpout>(kTuples); },
                   Fields({"v"}), 2, 2);
  builder.SetBolt("b", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.fault_injector = &injector;
  options.supervisor_interval_micros = 1'000;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_GE(injector.crashes_injected(), 2u);
  EXPECT_GE(runtime.executor_restarts(), 2u);
  MutexLock lock(sink->mutex);
  std::set<int64_t> distinct(sink->values.begin(), sink->values.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kTuples));
  EXPECT_EQ(sink->values.size(), static_cast<size_t>(kTuples));
}

// ---------------------------------------------------------------------------
// Long-lived topologies: Feed / AwaitQuiescence / RunOnTasks
// ---------------------------------------------------------------------------

/// CounterSpout a long-lived runtime feeds: Rewind(n) starts the batch
/// [0, n) over this task's stripe.
class FedCounterSpout : public Spout {
 public:
  void Open(const TaskContext& context) override {
    first_ = context.task_index;
    stride_ = context.num_tasks;
    next_ = first_;
  }
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->Emit({Value(int64_t{next_})});
    next_ += stride_;
    return next_ < n_;
  }
  void Rewind(int n) {
    n_ = n;
    next_ = first_;
  }

 private:
  int n_ = 0;
  int first_ = 0;
  int next_ = 0;
  int stride_ = 1;
};

/// Forwards its input; counts what its task executed since the last
/// NewBatch(), and remembers the thread it executed on.
class BatchCountBolt : public Bolt {
 public:
  void Execute(const Tuple& input, Collector* collector) override {
    ++count_;
    thread_ = std::this_thread::get_id();
    collector->Emit(input.values());
  }
  void NewBatch() { count_ = 0; }
  int count() const { return count_; }
  std::thread::id thread() const { return thread_; }

 private:
  int count_ = 0;
  std::thread::id thread_;
};

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

Topology FedTopology(std::shared_ptr<SinkBolt::Sink> sink) {
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<FedCounterSpout>(); },
                   Fields({"v"}), 1, 2);
  builder.SetBolt("double", [] { return std::make_unique<DoubleBolt>(); },
                  Fields({"v"}), 2)
      .ShuffleGrouping("s");
  // A chain: one subscriber per component, so each shuffle spreads evenly.
  builder.SetBolt("count", [] { return std::make_unique<BatchCountBolt>(); },
                  Fields({"v"}), 2, 4)
      .ShuffleGrouping("double");
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); },
                  Fields({}))
      .ShuffleGrouping("count");
  auto topology = builder.Build();
  EXPECT_TRUE(topology.ok());
  return std::move(*topology);
}

TEST(LongLivedRuntimeTest, FeedsBatchesThroughOneRunningTopology) {
  auto sink = std::make_shared<SinkBolt::Sink>();
  LocalRuntime runtime(FedTopology(sink), {});
  ASSERT_TRUE(runtime.Start().ok());
  ASSERT_TRUE(runtime.AwaitQuiescence());  // the spouts start empty

  size_t before = 0;
  for (int n : {100, 257, 1, 40}) {
    ASSERT_TRUE(runtime
                    .Feed("s",
                          [n](Spout* spout, int) {
                            static_cast<FedCounterSpout*>(spout)->Rewind(n);
                          })
                    .ok());
    ASSERT_TRUE(runtime.AwaitQuiescence());
    MutexLock lock(sink->mutex);
    ASSERT_EQ(sink->values.size(), before + static_cast<size_t>(n));
    std::multiset<int64_t> batch(sink->values.begin() + static_cast<long>(before),
                                 sink->values.end());
    std::multiset<int64_t> expected;
    for (int64_t v = 0; v < n; ++v) expected.insert(2 * v);
    EXPECT_EQ(batch, expected) << "batch of " << n;
    before = sink->values.size();
  }
  EXPECT_EQ(runtime.in_flight(), 0);
  EXPECT_FALSE(runtime.finished());
  EXPECT_EQ(runtime.metrics()->Totals("sink").executed, 398u);
  runtime.Stop();
  EXPECT_TRUE(runtime.finished());
}

TEST(LongLivedRuntimeTest, RunOnTasksRunsOnEachTasksExecutorThread) {
  auto sink = std::make_shared<SinkBolt::Sink>();
  LocalRuntime runtime(FedTopology(sink), {});
  ASSERT_TRUE(runtime.Start().ok());
  ASSERT_TRUE(runtime
                  .Feed("s",
                        [](Spout* spout, int) {
                          static_cast<FedCounterSpout*>(spout)->Rewind(400);
                        })
                  .ok());
  ASSERT_TRUE(runtime.AwaitQuiescence());

  // Four tasks on two executors: every task's action runs on the thread
  // that executed its tuples, and sees all of them.
  Mutex mutex;
  std::map<int, int> counts;
  std::set<std::thread::id> threads;
  int on_own_thread = 0;
  ASSERT_TRUE(runtime
                  .RunOnTasks("count",
                              [&](Bolt* bolt, int task) {
                                auto* counter = static_cast<BatchCountBolt*>(bolt);
                                MutexLock lock(mutex);
                                counts[task] = counter->count();
                                threads.insert(std::this_thread::get_id());
                                if (counter->thread() == std::this_thread::get_id()) {
                                  ++on_own_thread;
                                }
                                counter->NewBatch();
                              })
                  .ok());
  MutexLock lock(mutex);
  ASSERT_EQ(counts.size(), 4u);
  int total = 0;
  for (const auto& [task, count] : counts) total += count;
  EXPECT_EQ(total, 400);
  EXPECT_EQ(on_own_thread, 4);
  EXPECT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

TEST(LongLivedRuntimeTest, IdleTopologyUsesNoCpu) {
  auto sink = std::make_shared<SinkBolt::Sink>();
  LocalRuntime runtime(FedTopology(sink), {});
  ASSERT_TRUE(runtime.Start().ok());
  ASSERT_TRUE(runtime
                  .Feed("s",
                        [](Spout* spout, int) {
                          static_cast<FedCounterSpout*>(spout)->Rewind(1000);
                        })
                  .ok());
  ASSERT_TRUE(runtime.AwaitQuiescence());
  // Parked executors neither poll their queues nor spin the spout.
  const double cpu_before = CpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(CpuSeconds() - cpu_before, 0.020);
}

/// Burns `micros` of its own thread's CPU time per tuple.
class BusyBolt : public Bolt {
 public:
  explicit BusyBolt(int64_t micros) : micros_(micros) {}
  void Execute(const Tuple&, Collector*) override {
    const int64_t until = ThreadCpuMicros() + micros_;
    while (ThreadCpuMicros() < until) {
    }
  }

 private:
  static int64_t ThreadCpuMicros() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
  }
  int64_t micros_;
};

TEST(LongLivedRuntimeTest, UtilisationFindsTheBusyExecutor) {
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<FedCounterSpout>(); },
                   Fields({"v"}));
  builder.SetBolt("busy", [] { return std::make_unique<BusyBolt>(250); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  EXPECT_TRUE(runtime.ExecutorCpuTimes().empty());  // not started
  ASSERT_TRUE(runtime.Start().ok());
  ASSERT_TRUE(runtime.AwaitQuiescence());

  const auto before = runtime.ExecutorCpuTimes();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(runtime
                  .Feed("s",
                        [](Spout* spout, int) {
                          static_cast<FedCounterSpout*>(spout)->Rewind(400);
                        })
                  .ok());
  ASSERT_TRUE(runtime.AwaitQuiescence());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const auto utilisation =
      LocalRuntime::Utilisation(before, runtime.ExecutorCpuTimes(), wall);

  // 400 tuples x 250 us of CPU: on an idle machine the bolt's executor is
  // busy nearly all run. How much of the wall time that is depends on what
  // else the machine runs, so the test checks the CPU it burned instead:
  // at least the 100 ms it was made to spin, and the most of any executor.
  ASSERT_EQ(utilisation.size(), 2u);
  std::map<std::string, double> by_component;
  for (const auto& executor : utilisation) {
    EXPECT_EQ(executor.executor_index, 0);
    EXPECT_GE(executor.utilisation, 0.0) << executor.component;
    EXPECT_LE(executor.utilisation, 1.05) << executor.component;
    by_component[executor.component] = executor.utilisation;
  }
  EXPECT_GE(by_component.at("busy") * wall, 0.099);
  EXPECT_LT(by_component.at("s"), by_component.at("busy"));
  runtime.Stop();
  // Stopped executors have no clock to read.
  for (const auto& executor : runtime.ExecutorCpuTimes()) {
    EXPECT_EQ(executor.cpu_seconds, 0.0) << executor.component;
  }
}

TEST(LongLivedRuntimeTest, TaskActionsCheckTheirTarget) {
  auto sink = std::make_shared<SinkBolt::Sink>();
  {
    LocalRuntime runtime(FedTopology(sink), {});
    EXPECT_EQ(runtime.RunOnTasks("count", [](Bolt*, int) {}).code(),
              StatusCode::kFailedPrecondition);  // not started
    ASSERT_TRUE(runtime.Start().ok());
    EXPECT_EQ(runtime.Feed("count", [](Spout*, int) {}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(runtime.RunOnTasks("s", [](Bolt*, int) {}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(runtime.RunOnTasks("nope", [](Bolt*, int) {}).code(),
              StatusCode::kNotFound);
    runtime.Stop();
    EXPECT_EQ(runtime.RunOnTasks("count", [](Bolt*, int) {}).code(),
              StatusCode::kFailedPrecondition);
  }
  // Bolt actions run on a runtime that was never fed.
  LocalRuntime runtime(FedTopology(sink), {});
  ASSERT_TRUE(runtime.Start().ok());
  std::atomic<int> ran{0};
  EXPECT_TRUE(runtime.RunOnTasks("count", [&ran](Bolt*, int) { ++ran; }).ok());
  EXPECT_EQ(ran.load(), 4);
  runtime.AwaitCompletion();
}

// ---------------------------------------------------------------------------
// Operator chaining
// ---------------------------------------------------------------------------

int64_t ThreadTag() {
  return static_cast<int64_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

/// Forwards its input's value with the tag of the thread it executed on.
class ThreadTagBolt : public Bolt {
 public:
  void Execute(const Tuple& input, Collector* collector) override {
    collector->Emit({input.Get(0), Value(ThreadTag())});
  }
};

/// Counts the tuples it executed on the thread that emitted them: the mark of
/// a chained edge.
class ThreadCheckBolt : public Bolt {
 public:
  struct Log {
    std::atomic<int> same{0};
    std::atomic<int> other{0};
  };
  explicit ThreadCheckBolt(std::shared_ptr<Log> log) : log_(std::move(log)) {}
  void Execute(const Tuple& input, Collector*) override {
    ++(input.Get(1).AsInt() == ThreadTag() ? log_->same : log_->other);
  }

 private:
  std::shared_ptr<Log> log_;
};

class SnapshottableCheckBolt : public ThreadCheckBolt, public Snapshottable {
 public:
  using ThreadCheckBolt::ThreadCheckBolt;
  Status SnapshotState(std::string* out) const override {
    out->clear();
    return Status::OK();
  }
  Status RestoreState(const std::string&) override { return Status::OK(); }
};

struct ChainShape {
  int head_executors = 1;
  int head_tasks = 1;
  int tail_executors = 1;
  int tail_tasks = 1;
  bool fields_grouping = false;
  bool second_subscriber = false;
  bool snapshottable_tail = false;
};

/// Streams 200 tuples through spout -> "a" (ThreadTagBolt) -> "b"
/// (ThreadCheckBolt) wired as `shape` says; returns b's log.
std::shared_ptr<ThreadCheckBolt::Log> RunChainProbe(const ChainShape& shape) {
  auto log = std::make_shared<ThreadCheckBolt::Log>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(200); },
                   Fields({"v"}));
  builder
      .SetBolt("a", [] { return std::make_unique<ThreadTagBolt>(); },
               Fields({"v", "thread"}), shape.head_executors, shape.head_tasks)
      .ShuffleGrouping("s");
  auto declarer = builder.SetBolt(
      "b",
      [log, snapshottable = shape.snapshottable_tail]() -> std::unique_ptr<Bolt> {
        if (snapshottable) return std::make_unique<SnapshottableCheckBolt>(log);
        return std::make_unique<ThreadCheckBolt>(log);
      },
      Fields({}), shape.tail_executors, shape.tail_tasks);
  if (shape.fields_grouping) {
    declarer.FieldsGrouping("a", {"v"});
  } else {
    declarer.ShuffleGrouping("a");
  }
  if (shape.second_subscriber) {
    builder.SetBolt("c", [] { return std::make_unique<DoubleBolt>(); }, Fields({}))
        .ShuffleGrouping("a");
  }
  auto topology = builder.Build();
  EXPECT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  EXPECT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  EXPECT_EQ(runtime.metrics()->Totals("a").executed, 200u);
  EXPECT_EQ(runtime.metrics()->Totals("a").emitted,
            shape.second_subscriber ? 400u : 200u);
  EXPECT_EQ(runtime.metrics()->Totals("b").executed, 200u);
  return log;
}

/// Blocks in Execute until released.
class GateBolt : public Bolt {
 public:
  struct Gate {
    std::atomic<bool> open{false};
    std::atomic<int> entered{0};
  };
  explicit GateBolt(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  void Execute(const Tuple&, Collector*) override {
    ++gate_->entered;
    while (!gate_->open.load()) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

 private:
  std::shared_ptr<Gate> gate_;
};

TEST(OperatorChainTest, ShuffleToStatelessTailRunsInTheHeadsExecutor) {
  // Every tuple of b runs on the thread of the a task that emitted it.
  auto log = RunChainProbe({.head_executors = 2, .head_tasks = 4,
                            .tail_executors = 2, .tail_tasks = 4});
  EXPECT_EQ(log->same.load(), 200);
  EXPECT_EQ(log->other.load(), 0);

  // And b owns no queue: with b stuck in its first Execute, everything
  // behind it waits in a's queue, none in b's.
  auto gate = std::make_shared<GateBolt::Gate>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(100); },
                   Fields({"v"}));
  builder.SetBolt("a", [] { return std::make_unique<DoubleBolt>(); }, Fields({"v"}))
      .ShuffleGrouping("s");
  builder.SetBolt("b", [gate] { return std::make_unique<GateBolt>(gate); }, Fields({}))
      .ShuffleGrouping("a");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.queue_capacity = 1000;
  options.max_batch = 1;  // an executor holds one tuple out of its queue
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  auto queued = [&] {
    return std::lround((runtime.QueueOccupancy("a", 0) + runtime.QueueOccupancy("b", 0)) *
                       1000.0);
  };
  for (int i = 0; i < 5000 && !(gate->entered.load() == 1 && queued() == 99); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(gate->entered.load(), 1);
  EXPECT_EQ(queued(), 99);  // the 100th is in b's hand
  EXPECT_EQ(runtime.QueueOccupancy("b", 0), 0.0);
  gate->open.store(true);
  runtime.AwaitCompletion();
  EXPECT_EQ(runtime.metrics()->Totals("b").executed, 100u);
}

TEST(OperatorChainTest, FieldsGroupingIsNotChained) {
  EXPECT_EQ(RunChainProbe({.fields_grouping = true})->same.load(), 0);
}

TEST(OperatorChainTest, HeadWithSecondSubscriberIsNotChained) {
  EXPECT_EQ(RunChainProbe({.second_subscriber = true})->same.load(), 0);
}

TEST(OperatorChainTest, UnequalExecutorsAreNotChained) {
  EXPECT_EQ(RunChainProbe({.head_executors = 1, .head_tasks = 2,
                           .tail_executors = 2, .tail_tasks = 2})
                ->same.load(),
            0);
}

TEST(OperatorChainTest, UnequalTasksAreNotChained) {
  EXPECT_EQ(RunChainProbe({.head_executors = 1, .head_tasks = 2,
                           .tail_executors = 1, .tail_tasks = 1})
                ->same.load(),
            0);
}

TEST(OperatorChainTest, SnapshottableTailIsNotChained) {
  EXPECT_EQ(RunChainProbe({.snapshottable_tail = true})->same.load(), 0);
}

/// Acked source of [0, n): counts the callbacks in shared state.
class AckedCounterSpout : public Spout {
 public:
  struct Acks {
    std::atomic<int> acked{0};
    std::atomic<int> failed{0};
  };
  AckedCounterSpout(int n, std::shared_ptr<Acks> acks) : n_(n), acks_(std::move(acks)) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->EmitRooted(static_cast<uint64_t>(next_), {Value(int64_t{next_})});
    ++next_;
    return next_ < n_;
  }
  void Ack(uint64_t) override { ++acks_->acked; }
  void Fail(uint64_t) override { ++acks_->failed; }

 private:
  int n_;
  int next_ = 0;
  std::shared_ptr<Acks> acks_;
};

/// Emits its input twice (value and value + 1).
class FanOutBolt : public Bolt {
 public:
  void Execute(const Tuple& input, Collector* collector) override {
    collector->Emit({input.Get(0)});
    collector->Emit({Value(input.Get(0).AsInt() + 1)});
  }
};

struct AckedChainRun {
  int acked = 0;
  int failed = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> counts;  // executed, emitted
  std::multiset<int64_t> values;
  uint64_t restarts = 0;
};

/// Acked spout -> "fan" (FanOutBolt) -> "double" (DoubleBolt) -> "sink".
/// `chained` wires double behind fan by shuffle (a chain); otherwise by
/// fields grouping. The sink subscribes by fields grouping either way.
AckedChainRun RunAckedChain(bool chained, int tuples,
                            reliability::FaultInjector* injector = nullptr) {
  auto acks = std::make_shared<AckedCounterSpout::Acks>();
  auto sink = std::make_shared<SinkBolt::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [=] { return std::make_unique<AckedCounterSpout>(tuples, acks); },
                   Fields({"v"}));
  builder.SetBolt("fan", [] { return std::make_unique<FanOutBolt>(); }, Fields({"v"}), 2, 2)
      .ShuffleGrouping("s");
  auto declarer = builder.SetBolt(
      "double", [] { return std::make_unique<DoubleBolt>(); }, Fields({"v"}), 2, 2);
  if (chained) {
    declarer.ShuffleGrouping("fan");
  } else {
    declarer.FieldsGrouping("fan", {"v"});
  }
  builder.SetBolt("sink", [sink] { return std::make_unique<SinkBolt>(sink); }, Fields({}))
      .FieldsGrouping("double", {"v"});
  auto topology = builder.Build();
  EXPECT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.enable_acking = true;
  options.ack_timeout_micros = 200'000;
  options.replay_backoff_micros = 1'000;
  options.supervisor_interval_micros = 1'000;
  options.fault_injector = injector;
  LocalRuntime runtime(std::move(*topology), options);
  EXPECT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  AckedChainRun run;
  run.acked = acks->acked.load();
  run.failed = acks->failed.load();
  for (const char* name : {"s", "fan", "double", "sink"}) {
    auto totals = runtime.metrics()->Totals(name);
    run.counts[name] = {totals.executed, totals.emitted};
  }
  EXPECT_EQ(runtime.pending_trees(), 0u);
  MutexLock lock(sink->mutex);
  run.values.insert(sink->values.begin(), sink->values.end());
  run.restarts = runtime.executor_restarts();
  return run;
}

TEST(OperatorChainTest, AckedChainCompletesEveryTreeWithUnchainedCounts) {
  constexpr int kTuples = 500;
  AckedChainRun chained = RunAckedChain(/*chained=*/true, kTuples);
  AckedChainRun plain = RunAckedChain(/*chained=*/false, kTuples);
  EXPECT_EQ(chained.acked, kTuples);
  EXPECT_EQ(chained.failed, 0);
  EXPECT_EQ(plain.acked, kTuples);
  EXPECT_EQ(chained.counts, plain.counts);
  EXPECT_EQ(chained.counts["double"],
            std::make_pair(uint64_t{2 * kTuples}, uint64_t{2 * kTuples}));
  EXPECT_EQ(chained.values, plain.values);
}

TEST(OperatorChainTest, CrashInChainedTailRelaunchesTheExecutorAndReplays) {
  constexpr int kTuples = 300;
  reliability::FaultPlan plan;
  plan.crashes.push_back({.component = "double", .task = 0,
                          .after_executions = 40, .repeat = false});
  reliability::FaultInjector injector(plan);
  AckedChainRun run = RunAckedChain(/*chained=*/true, kTuples, &injector);
  EXPECT_EQ(injector.crashes_injected(), 1u);
  EXPECT_EQ(run.restarts, 1u);
  EXPECT_EQ(run.acked, kTuples);
  EXPECT_EQ(run.failed, 0);
  // At least once: every value reached the sink (replays may repeat some).
  for (int64_t v = 0; v < kTuples; ++v) {
    EXPECT_GE(run.values.count(2 * v), 1u) << v;
    EXPECT_GE(run.values.count(2 * v + 2), 1u) << v;
  }
}

/// Sleeps `micros` per tuple, then forwards its input.
class SleepBolt : public Bolt {
 public:
  explicit SleepBolt(int micros) : micros_(micros) {}
  void Execute(const Tuple& input, Collector* collector) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros_));
    collector->Emit(input.values());
  }

 private:
  int micros_;
};

TEST(OperatorChainTest, ChainHeadRecordsSelfTime) {
  // a does no work; its chained tail b sleeps. a's execute time is its own.
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(50); }, Fields({"v"}));
  builder.SetBolt("a", [] { return std::make_unique<DoubleBolt>(); }, Fields({"v"}))
      .ShuffleGrouping("s");
  builder.SetBolt("b", [] { return std::make_unique<SleepBolt>(2000); }, Fields({"v"}))
      .ShuffleGrouping("a");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.enable_tracing = true;
  options.trace_sample_rate = 1.0;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  auto a = runtime.metrics()->Totals("a");
  auto b = runtime.metrics()->Totals("b");
  EXPECT_EQ(a.executed, 50u);
  EXPECT_EQ(b.executed, 50u);
  EXPECT_GE(b.avg_latency_micros, 2000.0);
  EXPECT_LT(a.avg_latency_micros, 500.0);
  // Per member: one execute span per tuple, a queue-wait span only for the
  // head, which is the only one with a queue.
  std::map<std::string, std::map<observability::SpanKind, int>> spans;
  for (const auto& span : runtime.tracer()->Spans()) {
    spans[runtime.tracer()->ComponentName(span.component)][span.kind]++;
  }
  EXPECT_EQ(spans["a"][observability::SpanKind::kExecute], 50);
  EXPECT_EQ(spans["a"][observability::SpanKind::kQueueWait], 50);
  EXPECT_EQ(spans["b"][observability::SpanKind::kExecute], 50);
  EXPECT_EQ(spans["b"][observability::SpanKind::kQueueWait], 0);
}

TEST(SelfTimeTest, ExecuteTimeExcludesBlockedEmits) {
  // a emits into a one-tuple queue in front of a slow sink, so nearly all
  // of a's Execute call is spent blocked; its recorded time is not.
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(40); }, Fields({"v"}));
  builder.SetBolt("a", [] { return std::make_unique<DoubleBolt>(); }, Fields({"v"}))
      .ShuffleGrouping("s");
  builder.SetBolt("sink", [] { return std::make_unique<SleepBolt>(2000); }, Fields({"v"}))
      .FieldsGrouping("a", {"v"});
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.queue_capacity = 1;
  options.emit_batch = 1;
  options.enable_tracing = true;
  options.trace_sample_rate = 1.0;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  EXPECT_LT(runtime.metrics()->Totals("a").avg_latency_micros, 500.0);
  MicrosT blocked = 0;
  for (const auto& span : runtime.tracer()->Spans()) {
    if (span.kind != observability::SpanKind::kEmitBlocked) continue;
    EXPECT_EQ(runtime.tracer()->ComponentName(span.component), "a");
    blocked += span.duration_micros();
  }
  // a waited for most of the sink's 40 sleeps.
  EXPECT_GE(blocked, 30 * 2000);
}

}  // namespace
}  // namespace dsps
}  // namespace insight
