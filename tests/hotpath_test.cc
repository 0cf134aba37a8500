// Hot-path regression tests: shared tuple payloads across fan-out and
// ForwardDirect, batched queue hand-off (backpressure, Stop() mid-batch,
// FIFO), the chunked ring task queue (chunk reuse, crash requeue, priority
// drain, Stop accounting), acking through the batch flush, Fields/EventType
// hash-index lookups, and the incremental aggregation plan for the
// canonical detection rule.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "cep/engine.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dsps/local_runtime.h"
#include "dsps/ring_queue.h"
#include "dsps/topology.h"
#include "reliability/fault_injector.h"

namespace insight {
namespace dsps {
namespace {

/// Emits the integers [first, first + n) one per NextTuple, in order.
class CounterSpout : public Spout {
 public:
  explicit CounterSpout(int n, int64_t first = 0) : n_(n), first_(first) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->Emit({Value(first_ + next_)});
    ++next_;
    return next_ < n_;
  }

 private:
  int n_;
  int64_t first_;
  int next_ = 0;
};

/// Emits [0, n) as rooted (tracked) tuples and records Ack/Fail callbacks.
class RootedSpout : public Spout {
 public:
  struct Capture {
    Mutex mutex;
    std::vector<uint64_t> acked;
    std::vector<uint64_t> failed;
  };
  RootedSpout(int n, std::shared_ptr<Capture> capture)
      : n_(n), capture_(std::move(capture)) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->EmitRooted(static_cast<uint64_t>(next_) + 1,
                          {Value(int64_t{next_})});
    ++next_;
    return next_ < n_;
  }
  void Ack(uint64_t message_id) override {
    MutexLock lock(capture_->mutex);
    capture_->acked.push_back(message_id);
  }
  void Fail(uint64_t message_id) override {
    MutexLock lock(capture_->mutex);
    capture_->failed.push_back(message_id);
  }

 private:
  int n_;
  int next_ = 0;
  std::shared_ptr<Capture> capture_;
};

/// Emits forever (Stop() is the only way out).
class InfiniteSpout : public Spout {
 public:
  bool NextTuple(Collector* collector) override {
    collector->Emit({Value(int64_t{next_++})});
    return true;
  }

 private:
  int64_t next_ = 0;
};

/// Records every value, the observed payload buffer address, and this
/// delivery's edge id.
class CaptureBolt : public Bolt {
 public:
  struct Capture {
    Mutex mutex;
    std::vector<int64_t> values;                          // in arrival order
    std::map<int64_t, std::vector<const void*>> buffers;  // value -> payloads
    std::vector<uint64_t> edge_ids;
  };
  explicit CaptureBolt(std::shared_ptr<Capture> capture)
      : capture_(std::move(capture)) {}
  void Execute(const Tuple& input, Collector*) override {
    MutexLock lock(capture_->mutex);
    int64_t v = input.Get(0).AsInt();
    capture_->values.push_back(v);
    capture_->buffers[v].push_back(
        static_cast<const void*>(input.payload().get()));
    capture_->edge_ids.push_back(input.edge_id());
  }

 private:
  std::shared_ptr<Capture> capture_;
};

/// Emits its input's value plus 1000.
class RelayBolt : public Bolt {
 public:
  void Execute(const Tuple& input, Collector* collector) override {
    collector->Emit({Value(input.Get(0).AsInt() + 1000)});
  }
};

/// Forwards each input unchanged to every task of its direct subscriber,
/// as the Figure-8 splitter forwards a trace to the engines it routes to.
class ForwardBolt : public Bolt {
 public:
  explicit ForwardBolt(int targets) : targets_(targets) {}
  void Execute(const Tuple& input, Collector* collector) override {
    for (int task = 0; task < targets_; ++task) {
      collector->ForwardDirect(task, input);
    }
  }

 private:
  int targets_;
};

/// Sleeps `delay_micros` per execution, then records like CaptureBolt.
class SlowCaptureBolt : public CaptureBolt {
 public:
  SlowCaptureBolt(std::shared_ptr<Capture> capture, int delay_micros)
      : CaptureBolt(std::move(capture)), delay_micros_(delay_micros) {}
  void Execute(const Tuple& input, Collector* collector) override {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_micros_));
    CaptureBolt::Execute(input, collector);
  }

 private:
  int delay_micros_;
};

/// Emits its script of (value, priority) in order in one NextTuple call,
/// then opens `gate`.
class ScriptedSpout : public Spout {
 public:
  using Script = std::vector<std::pair<int64_t, TuplePriority>>;
  ScriptedSpout(Script script, std::shared_ptr<std::atomic<bool>> gate)
      : script_(std::move(script)), gate_(std::move(gate)) {}
  bool NextTuple(Collector* collector) override {
    for (const auto& [value, priority] : script_) {
      collector->EmitPrioritized(priority, {Value(value)});
    }
    gate_->store(true);
    return false;
  }

 private:
  Script script_;
  std::shared_ptr<std::atomic<bool>> gate_;
};

/// A CaptureBolt whose executor starts draining only once `gate` opens.
class GatedCaptureBolt : public CaptureBolt {
 public:
  GatedCaptureBolt(std::shared_ptr<Capture> capture,
                   std::shared_ptr<std::atomic<bool>> gate)
      : CaptureBolt(std::move(capture)), gate_(std::move(gate)) {}
  void Prepare(const TaskContext&) override {
    while (!gate_->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::shared_ptr<std::atomic<bool>> gate_;
};

/// Records what a bolt hands the collector, without a runtime.
class RecordingCollector : public Collector {
 public:
  struct Emission {
    int task;  // -1 for a plain Emit
    std::vector<Value> values;
  };
  void Emit(std::vector<Value> values) override {
    out.push_back({-1, std::move(values)});
  }
  void EmitDirect(int task, std::vector<Value> values) override {
    out.push_back({task, std::move(values)});
  }
  std::vector<Emission> out;
};

/// The values of `capture` in arrival order, read under its lock.
std::vector<int64_t> ValuesOf(CaptureBolt::Capture* capture) {
  MutexLock lock(capture->mutex);
  return capture->values;
}

bool StrictlyIncreasing(const std::vector<int64_t>& values) {
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] <= values[i - 1]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shared payload identity
// ---------------------------------------------------------------------------

TEST(HotpathTransportTest, FanOutSharesOneValueBuffer) {
  // One Emit fans out to 3 tasks of one bolt (all-grouping) plus 2 tasks of
  // a second bolt: five deliveries, one value buffer.
  auto capture = std::make_shared<CaptureBolt::Capture>();
  static constexpr int kTuples = 200;
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(kTuples); },
                   Fields({"v"}));
  builder.SetBolt("wide",
                  [capture] { return std::make_unique<CaptureBolt>(capture); },
                  Fields({}), 3)
      .AllGrouping("s");
  builder.SetBolt("other",
                  [capture] { return std::make_unique<CaptureBolt>(capture); },
                  Fields({}), 2)
      .AllGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  ASSERT_EQ(capture->buffers.size(), static_cast<size_t>(kTuples));
  for (const auto& [value, pointers] : capture->buffers) {
    ASSERT_EQ(pointers.size(), 5u) << "value " << value;
    for (const void* p : pointers) {
      EXPECT_EQ(p, pointers.front())
          << "value " << value << " was deep-copied on fan-out";
    }
  }
}

// ---------------------------------------------------------------------------
// Batched hand-off
// ---------------------------------------------------------------------------

TEST(HotpathTransportTest, BackpressureWithTinyQueueDeliversEverything) {
  // queue_capacity far below emit_batch: every flush blocks on the full
  // queue and overshoots capacity by at most one block.
  auto capture = std::make_shared<CaptureBolt::Capture>();
  static constexpr int kTuples = 2000;
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(kTuples); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [capture] { return std::make_unique<CaptureBolt>(capture); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.queue_capacity = 2;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(capture->values.size(), static_cast<size_t>(kTuples));
  std::set<int64_t> distinct(capture->values.begin(), capture->values.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kTuples));
}

TEST(HotpathTransportTest, SingleConsumerPreservesFifoOrder) {
  auto capture = std::make_shared<CaptureBolt::Capture>();
  static constexpr int kTuples = 1000;
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(kTuples); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [capture] { return std::make_unique<CaptureBolt>(capture); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  ASSERT_EQ(capture->values.size(), static_cast<size_t>(kTuples));
  for (int i = 0; i < kTuples; ++i) {
    ASSERT_EQ(capture->values[static_cast<size_t>(i)], int64_t{i})
        << "batched hand-off reordered tuples";
  }
}

TEST(HotpathTransportTest, StopDuringPartiallyFlushedBatch) {
  // An infinite spout with a large emit_batch keeps tuples staged in its
  // outbox while the tiny queue is saturated; Stop() must wake the blocked
  // flush, drop staged tuples, and join without deadlock.
  auto capture = std::make_shared<CaptureBolt::Capture>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<InfiniteSpout>(); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [capture] { return std::make_unique<CaptureBolt>(capture); },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.queue_capacity = 4;
  options.emit_batch = 256;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  runtime.Stop();
  EXPECT_TRUE(runtime.finished());
}

// ---------------------------------------------------------------------------
// ForwardDirect
// ---------------------------------------------------------------------------

TEST(HotpathTransportTest, ForwardDirectSharesOnePayloadAcrossDirectTasks) {
  // A splitter-style bolt forwards each input to both tasks of a direct
  // subscriber: the two deliveries must read one buffer, holding the
  // input's values.
  auto capture = std::make_shared<CaptureBolt::Capture>();
  static constexpr int kTuples = 300;
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(kTuples); },
                   Fields({"v"}));
  builder.SetBolt("split", [] { return std::make_unique<ForwardBolt>(2); },
                  Fields({"v"}))
      .ShuffleGrouping("s");
  builder.SetBolt("engines",
                  [capture] { return std::make_unique<CaptureBolt>(capture); },
                  Fields({}), 2)
      .DirectGrouping("split");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  ASSERT_EQ(capture->buffers.size(), static_cast<size_t>(kTuples));
  for (const auto& [value, pointers] : capture->buffers) {
    ASSERT_EQ(pointers.size(), 2u) << "value " << value;
    EXPECT_EQ(pointers[0], pointers[1])
        << "value " << value << " was copied for each direct task";
  }
  EXPECT_EQ(capture->buffers.begin()->first, 0);
}

TEST(HotpathTransportTest, DefaultForwardDirectCopiesTheValues) {
  // A collector that does not override ForwardDirect receives the input's
  // values through EmitDirect, in a buffer of its own.
  auto fields = std::make_shared<const Fields>(Fields({"a", "b"}));
  Tuple input(fields, std::vector<Value>{Value(int64_t{7}), Value(2.5)});
  RecordingCollector collector;
  ForwardBolt(2).Execute(input, &collector);

  ASSERT_EQ(collector.out.size(), 2u);
  for (int task = 0; task < 2; ++task) {
    const RecordingCollector::Emission& emission =
        collector.out[static_cast<size_t>(task)];
    EXPECT_EQ(emission.task, task);
    ASSERT_EQ(emission.values.size(), 2u);
    EXPECT_EQ(emission.values[0].AsInt(), 7);
    EXPECT_EQ(emission.values[1].AsDouble(), 2.5);
    EXPECT_NE(emission.values.data(), input.values().data());
  }
}

// ---------------------------------------------------------------------------
// Ring task queue
// ---------------------------------------------------------------------------

TEST(HotpathRingQueueTest, FifoAcrossChunkBoundariesReusesChunks) {
  constexpr size_t kChunk = RingQueue<int>::kChunk;
  RingQueue<int> ring;
  int next_in = 0;
  int next_out = 0;
  // Three and a half chunks, with the front a quarter into the first one.
  for (size_t i = 0; i < 3 * kChunk + kChunk / 2; ++i) {
    ring.push_back(next_in++);
  }
  for (size_t i = 0; i < kChunk / 4; ++i) {
    ASSERT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  for (size_t i = 0; i < ring.size(); ++i) {
    ASSERT_EQ(ring[i], next_out + static_cast<int>(i));
  }
  const size_t filled = ring.capacity();
  // Twenty chunks of traffic at a steady occupancy: each chunk the front
  // leaves comes back at the back, so at most one more is ever allocated.
  for (size_t i = 0; i < 20 * kChunk; ++i) {
    ring.push_back(next_in++);
    ASSERT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_LE(ring.capacity(), filled + kChunk) << "chunks were not reused";
  const size_t steady = ring.capacity();
  while (!ring.empty()) {
    ASSERT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(ring.capacity(), steady) << "chunks are kept for reuse";
}

TEST(HotpathRingQueueTest, PushFrontRequeuesAheadOfQueuedElements) {
  // The crash path's requeue: the un-executed rest of a drained batch goes
  // back, last first, ahead of the tuples that arrived meanwhile. The
  // batches leave the front mid-chunk, on a chunk boundary and just past
  // one, so the requeue fills the front chunk, starts a chunk before it,
  // and crosses from one into the other.
  constexpr int kChunk = static_cast<int>(RingQueue<int>::kChunk);
  for (int drained : {8, kChunk, kChunk + 2}) {
    RingQueue<int> ring;
    int next_in = 0;
    while (next_in < drained + 4) ring.push_back(next_in++);
    std::vector<int> batch;
    for (int i = 0; i < drained; ++i) {
      batch.push_back(ring.front());
      ring.pop_front();
    }
    for (int i = 0; i < kChunk; ++i) ring.push_back(next_in++);
    // Executed batch[0..2]; batch[3] died in hand; requeue batch[4..].
    for (size_t k = batch.size(); k-- > 4;) ring.push_front(batch[k]);
    std::vector<int> out;
    while (!ring.empty()) {
      out.push_back(ring.front());
      ring.pop_front();
    }
    std::vector<int> expected;
    for (int i = 4; i < next_in; ++i) expected.push_back(i);
    EXPECT_EQ(out, expected) << "batch of " << drained;
  }
}

TEST(HotpathRingQueueTest, PoppedTruncatedAndClearedSlotsReleaseTheirValues) {
  constexpr size_t kChunk = RingQueue<std::shared_ptr<int>>::kChunk;
  RingQueue<std::shared_ptr<int>> ring;
  auto payload = std::make_shared<int>(5);
  const long total = static_cast<long>(2 * kChunk + 10);  // three chunks
  for (long i = 0; i < total; ++i) ring.push_back(payload);
  EXPECT_EQ(payload.use_count(), total + 1);
  const size_t capacity = ring.capacity();
  ring.pop_front();
  EXPECT_EQ(payload.use_count(), total);
  ring.truncate(4);
  EXPECT_EQ(payload.use_count(), 5);
  EXPECT_EQ(ring.size(), 4u);
  ring.clear();
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_TRUE(ring.empty());
  // The chunks truncate and clear left empty are reused.
  for (long i = 0; i < total; ++i) ring.push_back(payload);
  EXPECT_EQ(ring.capacity(), capacity);
}

/// A queue whose peak occupancy was `peak` holds fewer slots than this, so
/// once more tuples than that have passed it, its chunks have been reused.
size_t RingSlotsBound(size_t peak) {
  return peak + 2 * RingQueue<Tuple>::kChunk;
}

TEST(HotpathRingQueueTest, CrashRequeueOnReusedChunksLosesOnlyTheTupleInHand) {
  // A slow sink keeps its queue full, so every drained batch is whole and
  // the crash leaves a remainder to requeue. More tuples pass the queue
  // before the crash than it has slots, so its chunks are being reused.
  static constexpr int kTuples = 1500;
  static constexpr uint64_t kCrashAt = 301;  // mid-batch: 301 % 16 != 0
  reliability::FaultPlan plan;
  plan.crashes.push_back({.component = "sink", .task = 0,
                          .after_executions = kCrashAt, .repeat = false});
  reliability::FaultInjector injector(plan);
  auto capture = std::make_shared<CaptureBolt::Capture>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<CounterSpout>(kTuples); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [capture] {
                    return std::make_unique<SlowCaptureBolt>(capture, 20);
                  },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.queue_capacity = 32;
  options.max_batch = 16;
  options.fault_injector = &injector;
  options.supervisor_interval_micros = 1'000;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(injector.crashes_injected(), 1u);
  EXPECT_GE(runtime.executor_restarts(), 1u);
  ASSERT_LT(RingSlotsBound(runtime.max_queue_occupancy()), kCrashAt);
  std::vector<int64_t> values = ValuesOf(capture.get());
  ASSERT_EQ(values.size(), static_cast<size_t>(kTuples - 1));
  EXPECT_TRUE(StrictlyIncreasing(values)) << "requeue reordered tuples";
  // The kCrashAt-th execution died with value kCrashAt - 1 in hand.
  EXPECT_EQ(values[kCrashAt - 2], static_cast<int64_t>(kCrashAt - 2));
  EXPECT_EQ(values[kCrashAt - 1], static_cast<int64_t>(kCrashAt));

  {
    // With shedding on (watermarks out of reach, so nothing sheds) the drain
    // is priority-aware. The sink starts only once a kLow backlog with six
    // kHigh tuples behind it is queued, so every drain is deterministic. The
    // first takes kHigh 100-103, the executor dies with 101 in hand, and 102
    // and 103 go back. They must count as kHigh again: the next drain takes
    // all four kHigh tuples left ahead of the kLow backlog.
    reliability::FaultPlan plan;
    plan.crashes.push_back({.component = "sink", .task = 0,
                            .after_executions = 2, .repeat = false});
    reliability::FaultInjector injector(plan);
    ScriptedSpout::Script script;
    for (int64_t low = 0; low < 40; ++low) {
      script.push_back({low, TuplePriority::kLow});
    }
    for (int64_t high = 100; high < 106; ++high) {
      script.push_back({high, TuplePriority::kHigh});
    }
    auto gate = std::make_shared<std::atomic<bool>>(false);
    auto capture = std::make_shared<CaptureBolt::Capture>();
    TopologyBuilder builder;
    builder.SetSpout("s",
                     [script, gate] {
                       return std::make_unique<ScriptedSpout>(script, gate);
                     },
                     Fields({"v"}));
    builder.SetBolt("sink",
                    [capture, gate] {
                      return std::make_unique<GatedCaptureBolt>(capture, gate);
                    },
                    Fields({}))
        .ShuffleGrouping("s");
    auto topology = builder.Build();
    ASSERT_TRUE(topology.ok());
    LocalRuntime::Options options;
    options.queue_capacity = 64;  // the whole script queues without blocking
    options.max_batch = 4;
    options.emit_batch = 1;  // each emission is queued before the gate opens
    options.fault_injector = &injector;
    options.supervisor_interval_micros = 1'000;
    options.overload.enable_load_shedding = true;
    options.overload.shed_low_watermark = 2.0;
    options.overload.shed_high_watermark = 2.0;
    LocalRuntime runtime(std::move(*topology), options);
    ASSERT_TRUE(runtime.Start().ok());
    runtime.AwaitCompletion();

    EXPECT_EQ(injector.crashes_injected(), 1u);
    std::vector<int64_t> expected{100, 102, 103, 104, 105};
    for (int64_t low = 0; low < 40; ++low) expected.push_back(low);
    EXPECT_EQ(ValuesOf(capture.get()), expected);
  }
}

TEST(HotpathRingQueueTest, PriorityDrainOnReusedChunksKeepsEachTierInOrder) {
  // With load shedding on (watermarks out of reach, so nothing sheds), a
  // sink queue holding more than one batch extracts its kHigh tuples first
  // and compacts the rest in place across its chunks, while they are being
  // reused. Every tuple must arrive once, each tier in its emission order.
  static constexpr int kNormal = 600;
  static constexpr int kHigh = 200;
  static constexpr int64_t kHighBase = 100000;
  auto capture = std::make_shared<CaptureBolt::Capture>();
  TopologyBuilder builder;
  builder.SetSpout("normal",
                   [] { return std::make_unique<CounterSpout>(kNormal); },
                   Fields({"v"}));
  builder.SetSpout("high",
                   [] {
                     return std::make_unique<CounterSpout>(kHigh, kHighBase);
                   },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [capture] {
                    return std::make_unique<SlowCaptureBolt>(capture, 20);
                  },
                  Fields({}))
      .ShuffleGrouping("normal")
      .ShuffleGrouping("high");
  builder.SetPriority("high", TuplePriority::kHigh);
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.queue_capacity = 48;
  options.max_batch = 8;
  options.emit_batch = 8;
  options.overload.enable_load_shedding = true;
  options.overload.shed_low_watermark = 2.0;
  options.overload.shed_high_watermark = 2.0;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  std::vector<int64_t> values = ValuesOf(capture.get());
  ASSERT_EQ(values.size(), static_cast<size_t>(kNormal + kHigh));
  std::vector<int64_t> normal, high;
  for (int64_t v : values) (v >= kHighBase ? high : normal).push_back(v);
  ASSERT_EQ(normal.size(), static_cast<size_t>(kNormal));
  ASSERT_EQ(high.size(), static_cast<size_t>(kHigh));
  EXPECT_TRUE(StrictlyIncreasing(normal)) << "drain reordered kNormal";
  EXPECT_TRUE(StrictlyIncreasing(high)) << "drain reordered kHigh";
  auto totals = runtime.metrics()->Totals("sink");
  EXPECT_EQ(totals.shed_low + totals.shed_normal + totals.shed_high, 0u);
  EXPECT_LT(RingSlotsBound(runtime.max_queue_occupancy()), values.size());
}

TEST(HotpathRingQueueTest, StopWithABacklogOnReusedChunksBalancesInFlight) {
  // An endless spout against a slow sink: at Stop the sink queue is full,
  // and hundreds of tuples have passed its few chunks. Stop drops the
  // backlog and must leave nothing in flight.
  auto capture = std::make_shared<CaptureBolt::Capture>();
  TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<InfiniteSpout>(); },
                   Fields({"v"}));
  builder.SetBolt("sink",
                  [capture] {
                    return std::make_unique<SlowCaptureBolt>(capture, 50);
                  },
                  Fields({}))
      .ShuffleGrouping("s");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.queue_capacity = 16;
  options.emit_batch = 8;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (ValuesOf(capture.get()).size() < 300 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(runtime.QueueOccupancy("sink", 0), 0.5) << "no backlog at Stop";
  runtime.Stop();

  EXPECT_TRUE(runtime.finished());
  EXPECT_EQ(runtime.in_flight(), 0) << "abandoned tuples left in flight";
  std::vector<int64_t> values = ValuesOf(capture.get());
  ASSERT_GE(values.size(), 300u);
  EXPECT_LT(RingSlotsBound(runtime.max_queue_occupancy()), values.size());
  EXPECT_TRUE(StrictlyIncreasing(values));
}

// ---------------------------------------------------------------------------
// Acking through the batch flush
// ---------------------------------------------------------------------------

TEST(HotpathTransportTest, AckingTracksPerTupleEdgeIdsAcrossBatches) {
  // Small emit/drain batches force many partial flushes; every delivered
  // copy must still carry its own nonzero edge id and every tree must ack.
  auto spout_capture = std::make_shared<RootedSpout::Capture>();
  auto sink_capture = std::make_shared<CaptureBolt::Capture>();
  static constexpr int kTuples = 300;
  TopologyBuilder builder;
  builder.SetSpout("s",
                   [spout_capture] {
                     return std::make_unique<RootedSpout>(kTuples,
                                                          spout_capture);
                   },
                   Fields({"v"}));
  builder.SetBolt("relay", [] { return std::make_unique<RelayBolt>(); },
                  Fields({"v"}), 2)
      .ShuffleGrouping("s");
  builder.SetBolt("sink",
                  [sink_capture] {
                    return std::make_unique<CaptureBolt>(sink_capture);
                  },
                  Fields({}), 2)
      .ShuffleGrouping("relay");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.enable_acking = true;
  options.emit_batch = 8;
  options.max_batch = 4;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(runtime.pending_trees(), 0u);
  auto totals = runtime.metrics()->Totals("s");
  EXPECT_EQ(totals.acked, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(totals.failed, 0u);
  EXPECT_EQ(totals.replayed, 0u);
  EXPECT_EQ(spout_capture->acked.size(), static_cast<size_t>(kTuples));
  EXPECT_TRUE(spout_capture->failed.empty());
  // Per-tuple edge semantics survive the block flush: one fresh id per
  // delivered copy, never zero, never reused.
  ASSERT_EQ(sink_capture->edge_ids.size(), static_cast<size_t>(kTuples));
  std::set<uint64_t> distinct_edges(sink_capture->edge_ids.begin(),
                                    sink_capture->edge_ids.end());
  EXPECT_EQ(distinct_edges.size(), static_cast<size_t>(kTuples));
  EXPECT_EQ(distinct_edges.count(0), 0u);
}

// ---------------------------------------------------------------------------
// Name lookups
// ---------------------------------------------------------------------------

TEST(HotpathLookupTest, FieldsHashIndexMatchesLinearScan) {
  Fields fields({"a", "b", "c", "a"});
  EXPECT_EQ(fields.IndexOf("a"), 0);  // first declaration wins
  EXPECT_EQ(fields.IndexOf("b"), 1);
  EXPECT_EQ(fields.IndexOf("c"), 2);
  EXPECT_EQ(fields.IndexOf("missing"), -1);
  Fields empty;
  EXPECT_EQ(empty.IndexOf("anything"), -1);
}

TEST(HotpathLookupTest, EventTypeFieldIndexByName) {
  cep::EventType type("bus", {{"timestamp", cep::ValueType::kInt},
                              {"location", cep::ValueType::kInt},
                              {"speed", cep::ValueType::kDouble}});
  EXPECT_EQ(type.FieldIndex("timestamp"), 0);
  EXPECT_EQ(type.FieldIndex("location"), 1);
  EXPECT_EQ(type.FieldIndex("speed"), 2);
  EXPECT_EQ(type.FieldIndex("ghost"), -1);
}

// ---------------------------------------------------------------------------
// Incremental aggregation plan
// ---------------------------------------------------------------------------

TEST(HotpathCepTest, CanonicalDetectionRuleCompilesIncremental) {
  cep::Engine engine;
  ASSERT_TRUE(engine
                  .RegisterEventType("bus",
                                     {{"timestamp", cep::ValueType::kInt},
                                      {"location", cep::ValueType::kInt},
                                      {"speed", cep::ValueType::kDouble}})
                  .ok());
  auto stmt = engine.AddStatement(
      "@Trigger(bus)\n"
      "SELECT bd.location AS location, avg(bd2.speed) AS value,\n"
      "       10.0 AS threshold, bd.timestamp AS timestamp\n"
      "FROM bus.std:lastevent() as bd,\n"
      "     bus.std:groupwin(location).win:length(4) as bd2\n"
      "WHERE bd.location = bd2.location\n"
      "GROUP BY bd2.location\n"
      "HAVING avg(bd2.speed) < 10.0",
      "canonical");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE((*stmt)->incremental())
      << "the paper's detection-rule shape must take the incremental "
         "aggregation path";
}

}  // namespace
}  // namespace dsps
}  // namespace insight
