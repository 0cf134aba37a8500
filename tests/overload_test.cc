// Overload-protection tests: the QueueGate unit, acking under blocking
// backpressure, priority-aware shedding with full accounting (shed +
// delivered == emitted, shed trees fail fast), the bounded-overshoot
// regression for blocking backpressure, and the disabled-equals-seed
// identity check.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "dsps/local_runtime.h"
#include "dsps/overload.h"
#include "dsps/topology.h"

namespace insight {
namespace dsps {
namespace {

// ---------------------------------------------------------------------------
// QueueGate

TEST(QueueGateTest, ForceAcquireCanOvershootForBlockingMode) {
  overload::QueueGate gate(4);
  gate.ForceAcquire(6);  // blocking producer appended a whole block
  EXPECT_EQ(gate.admitted(), 6);
  EXPECT_GT(gate.Occupancy(), 1.0);
  gate.Release(6);
  EXPECT_DOUBLE_EQ(gate.Occupancy(), 0.0);
}

// ---------------------------------------------------------------------------
// Runtime integration fixtures

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

/// Acking spout: EmitRooted the integers [0, n), counting Ack/Fail.
class RootedSpout : public Spout {
 public:
  struct Counts {
    std::atomic<int> acked{0};
    std::atomic<int> failed{0};
  };
  RootedSpout(int n, std::shared_ptr<Counts> counts)
      : n_(n), counts_(std::move(counts)) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->EmitRooted(static_cast<uint64_t>(next_ + 1),
                          {Value(int64_t{next_})});
    ++next_;
    return next_ < n_;
  }
  void Ack(uint64_t) override { counts_->acked.fetch_add(1); }
  void Fail(uint64_t) override { counts_->failed.fetch_add(1); }

 private:
  int n_;
  int next_ = 0;
  std::shared_ptr<Counts> counts_;
};

/// Records every value; optionally sleeps per tuple to create backpressure.
class SlowSink : public Bolt {
 public:
  struct Sink {
    Mutex mutex;
    std::vector<int64_t> values;
  };
  SlowSink(std::shared_ptr<Sink> sink, int delay_micros)
      : sink_(std::move(sink)), delay_micros_(delay_micros) {}
  void Execute(const Tuple& input, Collector*) override {
    if (delay_micros_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_micros_));
    }
    MutexLock lock(sink_->mutex);
    sink_->values.push_back(input.Get(0).AsInt());
  }

 private:
  std::shared_ptr<Sink> sink_;
  int delay_micros_;
};

// ---------------------------------------------------------------------------
// Blocking backpressure

TEST(OverloadRuntimeTest, AckingUnderBackpressureLosesNothing) {
  auto counts = std::make_shared<RootedSpout::Counts>();
  auto sink = std::make_shared<SlowSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s",
                   [counts] { return std::make_unique<RootedSpout>(500, counts); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [sink] { return std::make_unique<SlowSink>(sink, 10); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.enable_acking = true;
  options.queue_capacity = 32;
  options.emit_batch = 8;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(counts->acked.load(), 500);
  EXPECT_EQ(counts->failed.load(), 0);
  EXPECT_EQ(sink->values.size(), 500u);
  EXPECT_LT(runtime.max_queue_occupancy(),
            options.queue_capacity + options.emit_batch);
  runtime.Stop();
}

TEST(OverloadRuntimeTest, BlockingOvershootBoundedByOneBlock) {
  // Seed behavior allowed a producer that saw space for one tuple to append
  // a whole flush block past capacity. The bound is now checked: occupancy
  // stays strictly below capacity + block, i.e. at most one block beyond.
  auto sink = std::make_shared<SlowSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(3000); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [sink] { return std::make_unique<SlowSink>(sink, 15); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.queue_capacity = 64;
  options.emit_batch = 16;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(sink->values.size(), 3000u);
  EXPECT_LT(runtime.max_queue_occupancy(),
            options.queue_capacity + options.emit_batch);
  runtime.Stop();
}

// ---------------------------------------------------------------------------
// Priority-aware load shedding

TEST(OverloadRuntimeTest, ShedsLowPriorityAndAccountsEveryTuple) {
  static constexpr int kLowCount = 400;
  static constexpr int kHighCount = 200;
  auto low_counts = std::make_shared<RootedSpout::Counts>();
  auto high_counts = std::make_shared<RootedSpout::Counts>();
  auto sink = std::make_shared<SlowSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("low", [low_counts] {
    return std::make_unique<RootedSpout>(kLowCount, low_counts);
  }, Fields({"v"}));
  builder.SetSpout("high", [high_counts] {
    return std::make_unique<RootedSpout>(kHighCount, high_counts);
  }, Fields({"v"}));
  builder.SetBolt("sink",
                  [sink] { return std::make_unique<SlowSink>(sink, 0); },
                  Fields({}))
      .ShuffleGrouping("low")
      .ShuffleGrouping("high");
  builder.SetPriority("low", TuplePriority::kLow);
  builder.SetPriority("high", TuplePriority::kHigh);
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.enable_acking = true;
  options.overload.enable_load_shedding = true;
  // Watermark 0: every kLow delivery sheds, making the accounting exact and
  // deterministic; kHigh is never shed whatever the occupancy.
  options.overload.shed_low_watermark = 0.0;
  options.overload.shed_high_watermark = 2.0;  // never shed kNormal
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  // Shed trees fail fast; high-priority trees all complete.
  EXPECT_EQ(low_counts->failed.load(), kLowCount);
  EXPECT_EQ(low_counts->acked.load(), 0);
  EXPECT_EQ(high_counts->acked.load(), kHighCount);
  EXPECT_EQ(high_counts->failed.load(), 0);
  EXPECT_EQ(sink->values.size(), static_cast<size_t>(kHighCount));

  // Metrics account for every shed tuple by priority.
  auto totals = runtime.metrics()->Totals("sink");
  EXPECT_EQ(totals.shed_low, static_cast<uint64_t>(kLowCount));
  EXPECT_EQ(totals.shed_normal, 0u);
  EXPECT_EQ(totals.shed_high, 0u);
  // Accounting identity: executed + shed == emitted toward the sink.
  auto low_totals = runtime.metrics()->Totals("low");
  auto high_totals = runtime.metrics()->Totals("high");
  EXPECT_EQ(totals.executed + totals.shed_low + totals.shed_normal,
            low_totals.emitted + high_totals.emitted);
  runtime.Stop();
}

TEST(OverloadRuntimeTest, SheddingIdleWhenBelowWatermarks) {
  // Shedding enabled but queues never fill: nothing may be dropped.
  auto sink = std::make_shared<SlowSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(500); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [sink] { return std::make_unique<SlowSink>(sink, 0); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.overload.enable_load_shedding = true;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(sink->values.size(), 500u);
  auto totals = runtime.metrics()->Totals("sink");
  EXPECT_EQ(totals.shed_low + totals.shed_normal + totals.shed_high, 0u);
  runtime.Stop();
}

// ---------------------------------------------------------------------------
// Disabled == seed

TEST(OverloadRuntimeTest, AllDisabledMatchesSeedBehavior) {
  // Default options leave shedding off: no gates are built, no shed
  // counter may move, and delivery is exact.
  auto sink = std::make_shared<SlowSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(1000); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [sink] { return std::make_unique<SlowSink>(sink, 0); },
                  Fields({}), 2)
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  ASSERT_FALSE(options.overload.any_enabled());
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  std::set<int64_t> seen(sink->values.begin(), sink->values.end());
  EXPECT_EQ(sink->values.size(), 1000u);
  EXPECT_EQ(seen.size(), 1000u);
  auto totals = runtime.metrics()->Totals("sink");
  EXPECT_EQ(totals.shed_low + totals.shed_normal + totals.shed_high, 0u);
  runtime.Stop();
}

}  // namespace
}  // namespace dsps
}  // namespace insight
