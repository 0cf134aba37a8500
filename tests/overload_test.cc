// Overload-protection tests: the TaskQueue unit (occupancy, priority drain
// across a crash requeue), acking under blocking backpressure,
// priority-aware shedding with full accounting (shed + delivered ==
// emitted, shed trees fail fast), the bounded-overshoot regression for
// blocking backpressure, and the disabled-equals-seed identity check.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "dsps/local_runtime.h"
#include "dsps/overload.h"
#include "dsps/task_queue.h"
#include "dsps/topology.h"

namespace insight {
namespace dsps {
namespace {

// ---------------------------------------------------------------------------
// TaskQueue

/// A block of one-field tuples, each tagged with its value and priority.
std::vector<Tuple> Block(const Fields* schema,
                         const std::vector<std::pair<int, TuplePriority>>& spec) {
  std::vector<Tuple> block;
  for (const auto& [value, priority] : spec) {
    Tuple tuple(schema, {Value(int64_t{value})});
    tuple.set_priority(priority);
    block.push_back(std::move(tuple));
  }
  return block;
}

std::vector<int64_t> ValuesOf(const std::vector<Tuple>& batch) {
  std::vector<int64_t> values;
  for (const Tuple& tuple : batch) values.push_back(tuple.Get(0).AsInt());
  return values;
}

TEST(TaskQueueTest, OccupancyFollowsAppendDrainRequeueAndClear) {
  const Fields schema({"v"});
  std::atomic<bool> stopping{false};
  // Priority-aware, the occupancy shedding reads is published lock-free;
  // otherwise it is read under the mutex. Both must track the size.
  for (bool priority_drain : {true, false}) {
    SCOPED_TRACE(priority_drain ? "priority drain" : "FIFO drain");
    TaskQueue queue(8, priority_drain, &stopping, SystemClock::Get());
    EXPECT_DOUBLE_EQ(queue.Occupancy(), 0.0);
    std::vector<Tuple> block =
        Block(&schema, {{0, TuplePriority::kLow},
                        {1, TuplePriority::kLow},
                        {2, TuplePriority::kHigh},
                        {3, TuplePriority::kLow},
                        {4, TuplePriority::kLow},
                        {5, TuplePriority::kLow}});
    MicrosT blocked = 0;
    ASSERT_TRUE(queue.Append(&block, &blocked));
    EXPECT_TRUE(block.empty());
    EXPECT_EQ(blocked, 0);
    EXPECT_DOUBLE_EQ(queue.Occupancy(), 6.0 / 8);
    std::vector<Tuple> batch;
    queue.Drain(4, &batch);
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_DOUBLE_EQ(queue.Occupancy(), 2.0 / 8);
    queue.Requeue(&batch, 1);  // batch[0] executed, the rest goes back
    EXPECT_DOUBLE_EQ(queue.Occupancy(), 5.0 / 8);
    EXPECT_EQ(queue.Clear(), 5u);
    EXPECT_DOUBLE_EQ(queue.Occupancy(), 0.0);
    EXPECT_EQ(queue.peak_size(), 6u);
  }
}

TEST(TaskQueueTest, RequeueInsideTheHighPrefixKeepsHighFirst) {
  // A kLow standing queue of more than one batch with six kHigh tuples
  // mixed in. The first priority drain takes four of them; the executor
  // dies on the second, so the last two go back. The next drain must still
  // find all four kHigh tuples left (the two requeued and the two never
  // drained) ahead of the kLow backlog.
  const Fields schema({"v"});
  std::atomic<bool> stopping{false};
  TaskQueue queue(64, /*priority_drain=*/true, &stopping, SystemClock::Get());
  std::vector<std::pair<int, TuplePriority>> spec;
  int next_high = 100;
  for (int low = 0; low < 24; ++low) {
    spec.push_back({low, TuplePriority::kLow});
    if (low % 4 == 3) spec.push_back({next_high++, TuplePriority::kHigh});
  }
  ASSERT_EQ(next_high, 106);
  std::vector<Tuple> block = Block(&schema, spec);
  MicrosT blocked = 0;
  ASSERT_TRUE(queue.Append(&block, &blocked));

  std::vector<Tuple> batch;
  queue.Drain(4, &batch);
  EXPECT_EQ(ValuesOf(batch), (std::vector<int64_t>{100, 101, 102, 103}));
  queue.Requeue(&batch, 2);  // batch[1] died in hand
  batch.clear();
  queue.Drain(4, &batch);
  EXPECT_EQ(ValuesOf(batch), (std::vector<int64_t>{102, 103, 104, 105}));
  batch.clear();
  queue.Drain(4, &batch);
  EXPECT_EQ(ValuesOf(batch), (std::vector<int64_t>{0, 1, 2, 3}));
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
  // Default options leave shedding off: no shed counter may move, and
  // delivery is exact.
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
  ASSERT_FALSE(options.overload.enable_load_shedding);
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
