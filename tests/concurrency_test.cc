// Concurrency regressions for the shutdown path and the checked invariants.
//
// The deadlock test recreates the worst shutdown interleaving we know of:
// every queue at capacity (producers parked in the backpressure wait),
// executors being crash-restarted by the supervisor, and Stop() racing all
// of it. Stop() must wake the parked producers and return; before the
// CondVar migration this was easy to regress because the backpressure wait
// and the stop flag lived on different synchronization paths. CI runs this
// file under TSan so a lost-wakeup or lock-order mistake fails loudly.
//
// The death test asserts that a corrupted acker tree (two registrations
// under one root key) trips TMS_DCHECK in debug builds instead of silently
// mixing accumulators.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dsps/local_runtime.h"
#include "dsps/topology.h"
#include "reliability/acker.h"
#include "reliability/fault_injector.h"
#include "reliability/state_store.h"

namespace insight {
namespace dsps {
namespace {

using reliability::FaultInjector;
using reliability::FaultPlan;

/// Emits forever; only Stop() ends the run.
class InfiniteSpout : public Spout {
 public:
  bool NextTuple(Collector* collector) override {
    collector->Emit({Value(int64_t{next_++})});
    return true;
  }

 private:
  int64_t next_ = 0;
};

/// Consumes slowly so every upstream queue saturates.
class SlowSink : public Bolt {
 public:
  explicit SlowSink(std::shared_ptr<std::atomic<int64_t>> consumed)
      : consumed_(std::move(consumed)) {}
  void Execute(const Tuple&, Collector*) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    consumed_->fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<int64_t>> consumed_;
};

TEST(ConcurrencyTest, StopUnderFullBackpressureAndCrashesDoesNotDeadlock) {
  auto consumed = std::make_shared<std::atomic<int64_t>>(0);
  TopologyBuilder builder;
  builder.SetSpout("source", [] { return std::make_unique<InfiniteSpout>(); },
                   Fields({"v"}), /*parallelism=*/2);
  builder.SetBolt("sink",
                  [consumed] { return std::make_unique<SlowSink>(consumed); },
                  Fields({}), /*parallelism=*/2)
      .ShuffleGrouping("source");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  // Crash each sink task every 25 executions: the supervisor restarts it
  // while its input queue is full and producers are parked.
  FaultPlan plan;
  plan.crashes.push_back({"sink", /*task=*/-1, /*after_executions=*/25,
                          /*repeat=*/true});
  FaultInjector injector(plan);

  LocalRuntime::Options options;
  options.queue_capacity = 4;  // saturates almost immediately
  options.enable_acking = true;
  options.supervisor_interval_micros = 1'000;
  options.fault_injector = &injector;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());

  // Let the topology reach steady-state backpressure with some progress
  // (proves producers are genuinely parked, not spinning on empty queues).
  while (consumed->load(std::memory_order_relaxed) < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto stopped = std::async(std::launch::async, [&] { runtime.Stop(); });
  // Generous bound: TSan slows this run ~10x. A deadlocked Stop() fails
  // here with a message instead of tripping the ctest timeout.
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "Stop() deadlocked under full backpressure";
  runtime.AwaitCompletion();
  EXPECT_GE(runtime.executor_restarts(), 1u);
}

TEST(ConcurrencyTest, StopRacingSupervisorRelaunchLeaksNothing) {
  // Stop() arriving while crashed executors are mid-relaunch used to leave a
  // window where a freshly relaunched executor (or the tuples it abandoned)
  // escaped the join/drain pass. Stop() now drains every input queue after
  // joining and checks the in-flight count hits zero (TMS_DCHECK in Stop, so
  // a leak aborts debug/TSan builds). Vary the stop delay to sweep the race
  // window across crash, join, and relaunch.
  for (int delay_ms : {1, 3, 6, 10}) {
    auto consumed = std::make_shared<std::atomic<int64_t>>(0);
    TopologyBuilder builder;
    builder.SetSpout("source",
                     [] { return std::make_unique<InfiniteSpout>(); },
                     Fields({"v"}), /*parallelism=*/2);
    builder.SetBolt(
               "sink",
               [consumed] { return std::make_unique<SlowSink>(consumed); },
               Fields({}), /*parallelism=*/2)
        .ShuffleGrouping("source");
    auto topology = builder.Build();
    ASSERT_TRUE(topology.ok());

    // Crash constantly so a relaunch is nearly always in progress when
    // Stop() lands; checkpointing exercises the coordinator stop path too.
    FaultPlan plan;
    plan.crashes.push_back({"sink", /*task=*/-1, /*after_executions=*/2,
                            /*repeat=*/true});
    FaultInjector injector(plan);
    reliability::InMemoryStateStore store;

    LocalRuntime::Options options;
    options.queue_capacity = 8;
    options.enable_acking = true;
    options.supervisor_interval_micros = 500;
    options.fault_injector = &injector;
    options.enable_checkpointing = true;
    options.checkpoint_interval_micros = 1'000;
    options.state_store = &store;
    LocalRuntime runtime(std::move(*topology), options);
    ASSERT_TRUE(runtime.Start().ok());

    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    auto stopped = std::async(std::launch::async, [&] { runtime.Stop(); });
    ASSERT_EQ(stopped.wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "Stop() deadlocked racing the supervisor relaunch (delay "
        << delay_ms << "ms)";
    // Stop()'s internal TMS_DCHECK_EQ(in_flight_, 0) already aborted if a
    // tuple leaked; finished() confirms the clean join.
    EXPECT_TRUE(runtime.finished());
  }
}

// In-flight is counted per outbox flush and settled per drained batch, not
// per tuple. The quiescence tests check that no interleaving lets
// AwaitQuiescence return while a tuple is staged, queued or executing: each
// cycle feeds a batch through spout -> relay -> tag (chained behind relay)
// -> slow sink and then expects every tuple at the sink and in_flight() == 0.

/// Emits [0, n) over its task's stripe each time it is fed.
class FedSpout : public Spout {
 public:
  void Open(const TaskContext& context) override {
    first_ = context.task_index;
    stride_ = context.num_tasks;
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

class RelayBolt : public Bolt {
 public:
  void Execute(const Tuple& input, Collector* collector) override {
    collector->Emit(input.values());
  }
};

/// Counts how often each value was executed; pauses every 8th tuple so its
/// queues hold a backlog when the spout finishes.
class CountingSink : public Bolt {
 public:
  struct Counts {
    Mutex mutex;
    std::vector<int> executed GUARDED_BY(mutex);
  };
  explicit CountingSink(std::shared_ptr<Counts> counts) : counts_(std::move(counts)) {}
  void Execute(const Tuple& input, Collector*) override {
    if (++calls_ % 8 == 0) std::this_thread::sleep_for(std::chrono::microseconds(20));
    MutexLock lock(counts_->mutex);
    size_t v = static_cast<size_t>(input.Get(0).AsInt());
    if (v >= counts_->executed.size()) counts_->executed.resize(v + 1, 0);
    ++counts_->executed[v];
  }

 private:
  std::shared_ptr<Counts> counts_;
  uint64_t calls_ = 0;
};

/// Tuples shed so far on their way into any bolt's queue.
uint64_t ShedTotal(LocalRuntime& runtime) {
  uint64_t shed = 0;
  for (const char* component : {"relay", "tag", "sink"}) {
    auto totals = runtime.metrics()->Totals(component);
    shed += totals.shed_low + totals.shed_normal + totals.shed_high;
  }
  return shed;
}

/// Runs 200 Feed/AwaitQuiescence cycles; after each, every fed value must
/// have been executed at the sink exactly once, except the values an
/// injected crash lost in hand (one per crash) and the values shed, and
/// nothing may be in flight. Adds the tuples shed to `shed`, if given.
void RunQuiescenceCycles(LocalRuntime::Options options, FaultInjector* injector,
                         uint64_t* shed = nullptr) {
  auto counts = std::make_shared<CountingSink::Counts>();
  TopologyBuilder builder;
  builder.SetSpout("source", [] { return std::make_unique<FedSpout>(); },
                   Fields({"v"}), /*parallelism=*/1, /*num_tasks=*/2);
  builder.SetBolt("relay", [] { return std::make_unique<RelayBolt>(); },
                  Fields({"v"}), 2)
      .ShuffleGrouping("source");
  builder.SetBolt("tag", [] { return std::make_unique<RelayBolt>(); },
                  Fields({"v"}), 2)
      .ShuffleGrouping("relay");
  builder.SetBolt("sink",
                  [counts] { return std::make_unique<CountingSink>(counts); },
                  Fields({}), /*parallelism=*/2, /*num_tasks=*/3)
      .ShuffleGrouping("tag");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  options.emit_batch = 8;
  options.max_batch = 16;
  options.fault_injector = injector;
  options.supervisor_interval_micros = 500;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  ASSERT_TRUE(runtime.AwaitQuiescence());
  uint64_t crashes_before = 0;
  uint64_t shed_before = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    const int n = 1 + (cycle * 37) % 150;
    {
      MutexLock lock(counts->mutex);
      counts->executed.assign(static_cast<size_t>(n), 0);
    }
    ASSERT_TRUE(runtime
                    .Feed("source",
                          [n](Spout* spout, int) {
                            static_cast<FedSpout*>(spout)->Rewind(n);
                          })
                    .ok());
    // A count that is never settled would block AwaitQuiescence forever;
    // fail instead (Stop wakes the wait).
    auto quiet = std::async(std::launch::async, [&runtime] { return runtime.AwaitQuiescence(); });
    if (quiet.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
      const int64_t stuck = runtime.in_flight();
      runtime.Stop();
      FAIL() << "cycle " << cycle << " never quiesced; in flight: " << stuck;
    }
    ASSERT_TRUE(quiet.get());
    ASSERT_EQ(runtime.in_flight(), 0) << "cycle " << cycle;
    const uint64_t crashes =
        injector == nullptr ? 0 : injector->crashes_injected();
    const int lost = static_cast<int>(crashes - crashes_before);
    crashes_before = crashes;
    const uint64_t shed_now = ShedTotal(runtime);
    const int shed_in_cycle = static_cast<int>(shed_now - shed_before);
    shed_before = shed_now;
    MutexLock lock(counts->mutex);
    ASSERT_EQ(counts->executed.size(), static_cast<size_t>(n)) << "cycle " << cycle;
    int once = 0;
    for (int times : counts->executed) {
      ASSERT_LE(times, 1) << "cycle " << cycle;
      once += times;
    }
    ASSERT_EQ(once + lost + shed_in_cycle, n)
        << "cycle " << cycle << ": " << lost << " lost to crashes, "
        << shed_in_cycle << " shed";
  }
  runtime.Stop();
  EXPECT_EQ(runtime.in_flight(), 0);
  if (shed != nullptr) *shed += shed_before;
}

TEST(QuiescenceStressTest, EveryFedTupleIsExecutedBeforeQuiescence) {
  RunQuiescenceCycles({}, nullptr);
}

TEST(QuiescenceStressTest, SheddingUnderBackpressureNeverQuiescesEarly) {
  // Deliver sheds kNormal tuples before they are staged, so they are never
  // counted in flight; the rest must still all be executed before quiescence.
  LocalRuntime::Options options;
  options.queue_capacity = 16;
  options.overload.enable_load_shedding = true;
  options.overload.shed_low_watermark = 0.25;
  options.overload.shed_high_watermark = 0.5;  // sheds kNormal
  uint64_t shed = 0;
  RunQuiescenceCycles(options, nullptr, &shed);
  EXPECT_GT(shed, 0u);
}

TEST(QuiescenceStressTest, CrashRequeuingPartOfABatchKeepsTheRestCounted) {
  // Every 23rd execution of a sink task dies in hand, mid-batch: the rest
  // of its drained batch is requeued and must still be executed before
  // quiescence; only the tuple in hand is lost.
  FaultPlan plan;
  plan.crashes.push_back({"sink", /*task=*/-1, /*after_executions=*/23,
                          /*repeat=*/true});
  FaultInjector injector(plan);
  RunQuiescenceCycles({}, &injector);
  EXPECT_GT(injector.crashes_injected(), 0u);
}

using AckerDeathTest = ::testing::Test;

TEST(AckerDeathTest, DuplicateRegisterTripsDCheckInDebugBuilds) {
#if TMS_DCHECK_ENABLED
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  reliability::TreeInfo info;
  info.root_key = 42;
  info.message_id = 7;
  EXPECT_DEATH(
      {
        reliability::Acker acker(4);
        acker.Register(info, /*guard_edge=*/0x1);
        acker.Register(info, /*guard_edge=*/0x2);  // same root key, live tree
      },
      "registered twice");
#else
  GTEST_SKIP() << "TMS_DCHECK compiled out (NDEBUG build); the asan-ubsan "
                  "CI job builds Debug and runs this for real";
#endif
}

// The Debug-build lock-rank validator (common/mutex.h) is the dynamic
// backstop of tools/analyze.py's static ordering check: the analyzer
// proves what it can resolve at analysis time, the validator catches the
// acquisition orders that only materialize at run time.

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, InvertedAcquisitionOrderAbortsInDebugBuilds) {
#if TMS_LOCK_RANK_CHECKS_ENABLED
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex low{TMS_LOCK_RANK(10)};
        Mutex high{TMS_LOCK_RANK(20)};
        MutexLock outer(high);
        MutexLock inner(low);  // rank 10 under rank 20: inverted
      },
      "lock-rank order violation");
#else
  GTEST_SKIP() << "lock-rank checks compiled out (NDEBUG build); the "
                  "asan-ubsan CI job builds Debug and runs this for real";
#endif
}

TEST(LockRankDeathTest, SameRankNestingAbortsInDebugBuilds) {
#if TMS_LOCK_RANK_CHECKS_ENABLED
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a{TMS_LOCK_RANK(30)};
        Mutex b{TMS_LOCK_RANK(30)};
        MutexLock outer(a);
        MutexLock inner(b);  // equal ranks must never nest
      },
      "lock-rank order violation");
#else
  GTEST_SKIP() << "lock-rank checks compiled out (NDEBUG build)";
#endif
}

TEST(LockRankTest, IncreasingOrderAndReleaseAreAllowed) {
  Mutex low{TMS_LOCK_RANK(10)};
  Mutex high{TMS_LOCK_RANK(20)};
  {
    MutexLock outer(low);
    MutexLock inner(high);  // strictly increasing: fine
  }
  {
    // Release resets the held stack: re-acquiring low afterwards is legal.
    MutexLock again(low);
  }
}

TEST(LockRankTest, UnrankedMutexesDoNotParticipate) {
  Mutex ranked{TMS_LOCK_RANK(40)};
  Mutex unranked;
  MutexLock outer(ranked);
  MutexLock inner(unranked);  // no rank, no ordering constraint
  EXPECT_EQ(unranked.rank(), Mutex::kNoRank);
  EXPECT_EQ(ranked.rank(), 40);
}

TEST(LockRankTest, ManualLockUnlockMayReleaseOutOfOrder) {
  // Manual pairs (TaskQueue-style code) may unlock in any order; the
  // validator drops the innermost occurrence of the released rank.
  Mutex a{TMS_LOCK_RANK(50)};
  Mutex b{TMS_LOCK_RANK(60)};
  a.Lock();
  b.Lock();
  a.Unlock();  // out of LIFO order
  b.Unlock();
  // The held stack is empty again: a fresh low-rank acquisition is legal.
  MutexLock lock(a);
}

}  // namespace
}  // namespace dsps
}  // namespace insight
