#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "dsps/local_runtime.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dsps/topology.h"
#include "reliability/acker.h"
#include "reliability/fault_injector.h"
#include "reliability/replay.h"

namespace insight {
namespace reliability {
namespace {

using dsps::Bolt;
using dsps::Collector;
using dsps::Fields;
using dsps::LocalRuntime;
using dsps::Spout;
using dsps::TaskContext;
using dsps::TopologyBuilder;
using dsps::Tuple;
using dsps::Value;

// ---------------------------------------------------------------------------
// Acker unit tests
// ---------------------------------------------------------------------------

TEST(AckerTest, TreeCompletesWhenAllEdgesAcked) {
  Acker acker;
  TreeInfo info;
  info.root_key = 42;
  info.message_id = 7;
  info.created_micros = 100;
  const uint64_t guard = 0x1111;
  acker.Register(info, guard);
  EXPECT_EQ(acker.pending(), 1u);

  // Two root edges emitted, then the guard released.
  const uint64_t e1 = 0xaaaa, e2 = 0xbbbb;
  EXPECT_FALSE(acker.Xor(42, e1 ^ e2 ^ guard).has_value());
  // Consumer 1 finishes, emitting a child edge e3.
  const uint64_t e3 = 0xcccc;
  EXPECT_FALSE(acker.Xor(42, e1 ^ e3).has_value());
  // Consumer 2 finishes (leaf).
  EXPECT_FALSE(acker.Xor(42, e2).has_value());
  // The child leaf finishes: tree complete.
  auto done = acker.Xor(42, e3);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->message_id, 7u);
  EXPECT_EQ(acker.pending(), 0u);
}

TEST(AckerTest, GuardPreventsPrematureCompletion) {
  Acker acker;
  TreeInfo info;
  info.root_key = 1;
  acker.Register(info, /*guard_edge=*/0x5555);
  const uint64_t e1 = 0x9999;
  // The only root edge is emitted and fully acked before registration
  // finishes — without the guard this transient would complete the tree.
  EXPECT_FALSE(acker.Xor(1, e1).has_value());
  EXPECT_FALSE(acker.Xor(1, e1).has_value());
  EXPECT_EQ(acker.pending(), 1u);
  // Releasing the guard with no outstanding edges completes it.
  EXPECT_TRUE(acker.Xor(1, 0x5555).has_value());
}

TEST(AckerTest, LateAcksForExpiredTreesAreIgnored) {
  Acker acker;
  TreeInfo info;
  info.root_key = 9;
  info.created_micros = 50;
  acker.Register(info, 0x1234);
  auto expired = acker.ExpireOlderThan(60);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].root_key, 9u);
  EXPECT_EQ(acker.pending(), 0u);
  // A straggler ack of the expired tree must not resurrect or complete it.
  EXPECT_FALSE(acker.Xor(9, 0x1234).has_value());
}

TEST(AckerTest, ExpiryOnlyTakesOldTrees) {
  Acker acker;
  TreeInfo young, old;
  young.root_key = 1;
  young.created_micros = 100;
  old.root_key = 2;
  old.created_micros = 10;
  acker.Register(young, 0xa);
  acker.Register(old, 0xb);
  auto expired = acker.ExpireOlderThan(50);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].root_key, 2u);
  EXPECT_EQ(acker.pending(), 1u);
}

// ---------------------------------------------------------------------------
// ReplayBuffer unit tests
// ---------------------------------------------------------------------------

TEST(ReplayBufferTest, SchedulesBackedOffRetriesThenGivesUp) {
  ReplayPolicy policy;
  policy.max_replays = 2;
  policy.backoff_base_micros = 100;
  policy.backoff_factor = 2.0;
  ReplayBuffer buffer(policy);
  buffer.Store(1, 0, 0, {Value(int64_t{5})});

  // First failure: retry due at t+100.
  ASSERT_TRUE(buffer.Fail(1, 0, 0, /*now=*/1000));
  EXPECT_TRUE(buffer.TakeDue(0, 0, 1099).empty());
  auto due = buffer.TakeDue(0, 0, 1100);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempt, 1);
  EXPECT_EQ(due[0].values[0].AsInt(), 5);

  // Second failure: backoff doubles (due at t+200).
  ASSERT_TRUE(buffer.Fail(1, 0, 0, 2000));
  EXPECT_TRUE(buffer.TakeDue(0, 0, 2199).empty());
  ASSERT_EQ(buffer.TakeDue(0, 0, 2200).size(), 1u);

  // Third failure: budget exhausted.
  EXPECT_FALSE(buffer.Fail(1, 0, 0, 3000));
  EXPECT_EQ(buffer.stored(), 0u);
}

TEST(ReplayBufferTest, AckDropsPayloadAndScheduledRetry) {
  ReplayBuffer buffer(ReplayPolicy{});
  buffer.Store(1, 0, 0, {Value(int64_t{1})});
  ASSERT_TRUE(buffer.Fail(1, 0, 0, 0));
  EXPECT_EQ(buffer.scheduled_retries(), 1u);
  EXPECT_TRUE(buffer.Ack(1, 0, 0));
  EXPECT_EQ(buffer.scheduled_retries(), 0u);
  EXPECT_EQ(buffer.stored(), 0u);
  EXPECT_FALSE(buffer.Ack(1, 0, 0));
  EXPECT_FALSE(buffer.Fail(1, 0, 0, 0));
}

TEST(ReplayBufferTest, TakeDueFiltersBySpoutTask) {
  ReplayBuffer buffer(ReplayPolicy{.max_replays = 3,
                                   .backoff_base_micros = 0,
                                   .backoff_factor = 1.0});
  buffer.Store(1, 0, 0, {Value(int64_t{1})});
  buffer.Store(2, 0, 1, {Value(int64_t{2})});
  ASSERT_TRUE(buffer.Fail(1, /*spout_component=*/0, /*spout_task=*/0, 0));
  ASSERT_TRUE(buffer.Fail(2, /*spout_component=*/0, /*spout_task=*/1, 0));
  auto due0 = buffer.TakeDue(0, 0, 10);
  ASSERT_EQ(due0.size(), 1u);
  EXPECT_EQ(due0[0].message_id, 1u);
  auto due1 = buffer.TakeDue(0, 1, 10);
  ASSERT_EQ(due1.size(), 1u);
  EXPECT_EQ(due1[0].message_id, 2u);
}

TEST(ReplayBufferTest, ScopesPayloadsBySpoutTask) {
  // Two spouts reusing one message-id space must not clobber each other's
  // payloads: regression for a cross-spout collision where the second
  // Store replaced the first payload and an Ack for either spout erased
  // both, leaking the other spout's pending tree.
  ReplayBuffer buffer(ReplayPolicy{.max_replays = 3,
                                   .backoff_base_micros = 0,
                                   .backoff_factor = 1.0});
  buffer.Store(1, /*spout_component=*/0, /*spout_task=*/0,
               {Value(int64_t{10})});
  buffer.Store(1, /*spout_component=*/1, /*spout_task=*/0,
               {Value(int64_t{20})});
  EXPECT_EQ(buffer.stored(), 2u);

  // Acking one spout's message leaves the other's payload and retry alone.
  ASSERT_TRUE(buffer.Fail(1, 1, 0, 0));
  EXPECT_TRUE(buffer.Ack(1, 0, 0));
  EXPECT_EQ(buffer.stored(), 1u);
  EXPECT_EQ(buffer.scheduled_retries(), 1u);

  // The surviving retry replays the second spout's values, not the first's.
  auto due = buffer.TakeDue(1, 0, 10);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].values[0].AsInt(), 20);
  EXPECT_TRUE(buffer.Discard(1, 1, 0));
  EXPECT_EQ(buffer.stored(), 0u);
}

// ---------------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, CrashFiresOnNthExecution) {
  FaultPlan plan;
  plan.crashes.push_back({.component = "bolt", .task = 1,
                          .after_executions = 3, .repeat = false});
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.ShouldCrash("bolt", 1));
  EXPECT_FALSE(injector.ShouldCrash("bolt", 1));
  EXPECT_FALSE(injector.ShouldCrash("other", 1));  // different component
  EXPECT_FALSE(injector.ShouldCrash("bolt", 0));   // different task
  EXPECT_TRUE(injector.ShouldCrash("bolt", 1));
  EXPECT_FALSE(injector.ShouldCrash("bolt", 1));  // once only
  EXPECT_EQ(injector.crashes_injected(), 1u);
}

TEST(FaultInjectorTest, DropRateIsSeededAndApproximate) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.routes.push_back({.source = "a", .dest = "b",
                         .drop_probability = 0.1});
  FaultInjector one(plan);
  FaultInjector two(plan);
  int drops_one = 0, drops_two = 0;
  for (int i = 0; i < 10000; ++i) {
    if (one.OnRoute("a", "b").drop) ++drops_one;
    if (two.OnRoute("a", "b").drop) ++drops_two;
    EXPECT_FALSE(one.OnRoute("x", "y").drop);  // rule doesn't match
  }
  EXPECT_EQ(drops_one, drops_two);  // same seed, same decisions
  EXPECT_GT(drops_one, 800);
  EXPECT_LT(drops_one, 1200);
  EXPECT_EQ(one.tuples_dropped(), static_cast<uint64_t>(drops_one));
}

TEST(FaultInjectorTest, DuplicateAndDelayDecisions) {
  FaultPlan plan;
  plan.routes.push_back({.source = "",
                         .dest = "sink",
                         .drop_probability = 0.0,
                         .duplicate_probability = 1.0,
                         .delay_probability = 1.0,
                         .delay_micros = 7});
  FaultInjector injector(plan);
  auto decision = injector.OnRoute("anything", "sink");
  EXPECT_TRUE(decision.duplicate);
  EXPECT_EQ(decision.delay_micros, 7);
  EXPECT_EQ(injector.tuples_duplicated(), 1u);
  EXPECT_EQ(injector.delays_injected(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: at-least-once under injected faults
// ---------------------------------------------------------------------------

/// Emits the integers [0, n) as rooted (tracked) tuples, message id = value.
class RootedSpout : public Spout {
 public:
  explicit RootedSpout(int n) : n_(n) {}
  void Open(const TaskContext& context) override {
    next_ = context.task_index;
    stride_ = context.num_tasks;
  }
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->EmitRooted(static_cast<uint64_t>(next_),
                          {Value(int64_t{next_})});
    next_ += stride_;
    return next_ < n_;
  }
  void Ack(uint64_t id) override {
    acked_ids.insert(id);
    ++ack_calls;
  }
  void Fail(uint64_t id) override { failed_ids.insert(id); }

  std::set<uint64_t> acked_ids;
  std::set<uint64_t> failed_ids;
  int ack_calls = 0;

 private:
  int n_;
  int next_ = 0;
  int stride_ = 1;
};

/// Forwards its input unchanged (gives the tuple tree a second level).
class RelayBolt : public Bolt {
 public:
  void Execute(const Tuple& input, Collector* collector) override {
    collector->Emit({input.Get(0)});
  }
};

/// Records every value it sees (multiset: duplicates visible).
class CountingSink : public Bolt {
 public:
  struct Sink {
    Mutex mutex;
    std::map<int64_t, int> counts;
  };
  explicit CountingSink(std::shared_ptr<Sink> sink) : sink_(std::move(sink)) {}
  void Execute(const Tuple& input, Collector*) override {
    MutexLock lock(sink_->mutex);
    sink_->counts[input.Get(0).AsInt()]++;
  }

 private:
  std::shared_ptr<Sink> sink_;
};

struct FaultyRunResult {
  std::shared_ptr<CountingSink::Sink> sink;
  dsps::MetricsRegistry::ComponentTotals spout_totals;
  uint64_t restarts = 0;
  size_t distinct() const {
    MutexLock lock(sink->mutex);
    return sink->counts.size();
  }
};

/// The ISSUE's acceptance topology: spout -> relay -> sink with a bolt
/// crash at a fixed execution count plus 1% tuple drop on relay->sink.
FaultyRunResult RunFaultyTopology(int n, bool acking,
                                  FaultInjector* injector) {
  auto sink = std::make_shared<CountingSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("source", [n] { return std::make_unique<RootedSpout>(n); },
                   Fields({"v"}));
  builder.SetBolt("relay", [] { return std::make_unique<RelayBolt>(); },
                  Fields({"v"}))
      .ShuffleGrouping("source");
  builder.SetBolt("sink", [sink] { return std::make_unique<CountingSink>(sink); },
                  Fields({}))
      .ShuffleGrouping("relay");
  auto topology = builder.Build();
  EXPECT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.enable_acking = acking;
  options.ack_timeout_micros = 50'000;    // 50 ms: quick replay rounds
  options.max_replays = 10;
  options.replay_backoff_micros = 5'000;
  options.supervisor_interval_micros = 1'000;
  options.fault_injector = injector;
  LocalRuntime runtime(std::move(*topology), options);
  EXPECT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  FaultyRunResult result;
  result.sink = sink;
  result.spout_totals = runtime.metrics()->Totals("source");
  result.restarts = runtime.executor_restarts();
  return result;
}

FaultPlan AcceptanceFaultPlan() {
  FaultPlan plan;
  plan.seed = 20150324;  // fixed: deterministic drop pattern
  plan.crashes.push_back({.component = "relay", .task = 0,
                          .after_executions = 500, .repeat = false});
  plan.routes.push_back({.source = "relay", .dest = "sink",
                         .drop_probability = 0.01});
  return plan;
}

TEST(ReliabilityEndToEndTest, AckingDeliversEveryTupleDespiteFaults) {
  constexpr int kTuples = 2000;
  FaultInjector injector(AcceptanceFaultPlan());
  FaultyRunResult result =
      RunFaultyTopology(kTuples, /*acking=*/true, &injector);

  // The guarantee: every tuple id observed at least once.
  EXPECT_EQ(result.distinct(), static_cast<size_t>(kTuples));
  // Faults actually fired and were healed by replay + supervisor restart.
  EXPECT_GE(injector.crashes_injected(), 1u);
  EXPECT_GT(injector.tuples_dropped(), 0u);
  EXPECT_GE(result.restarts, 1u);
  EXPECT_GT(result.spout_totals.replayed, 0u);
  EXPECT_GT(result.spout_totals.failed, 0u);  // timeouts preceded replays
  EXPECT_EQ(result.spout_totals.acked, static_cast<uint64_t>(kTuples));
}

TEST(ReliabilityEndToEndTest, WithoutAckingSameFaultsLoseTuples) {
  constexpr int kTuples = 2000;
  FaultInjector injector(AcceptanceFaultPlan());
  FaultyRunResult result =
      RunFaultyTopology(kTuples, /*acking=*/false, &injector);

  // Same topology, same faults, no acker: the dropped/crashed tuples are
  // simply gone — demonstrating the guarantee above is real.
  EXPECT_LT(result.distinct(), static_cast<size_t>(kTuples));
  EXPECT_GT(injector.tuples_dropped(), 0u);
  EXPECT_EQ(result.spout_totals.replayed, 0u);
}

TEST(ReliabilityEndToEndTest, CleanRunAcksEveryMessageNoReplays) {
  static constexpr int kTuples = 1000;
  auto sink = std::make_shared<CountingSink::Sink>();
  auto spout = std::make_shared<std::atomic<RootedSpout*>>(nullptr);
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [spout] {
                     auto s = std::make_unique<RootedSpout>(kTuples);
                     spout->store(s.get());
                     return s;
                   },
                   Fields({"v"}));
  builder.SetBolt("relay", [] { return std::make_unique<RelayBolt>(); },
                  Fields({"v"}), 2)
      .ShuffleGrouping("source");
  builder.SetBolt("sink", [sink] { return std::make_unique<CountingSink>(sink); },
                  Fields({}), 2)
      .ShuffleGrouping("relay");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.enable_acking = true;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(runtime.pending_trees(), 0u);
  auto totals = runtime.metrics()->Totals("source");
  EXPECT_EQ(totals.acked, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(totals.failed, 0u);
  EXPECT_EQ(totals.replayed, 0u);
  // Ack callbacks reached the spout instance on its executor thread.
  RootedSpout* instance = spout->load();
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->acked_ids.size(), static_cast<size_t>(kTuples));
  EXPECT_TRUE(instance->failed_ids.empty());
}

/// Emits three tuples (v, 0..2) per input plus one EmitDirect to task
/// v % num_tasks of the kDirect subscriber.
class FanOutBolt : public Bolt {
 public:
  explicit FanOutBolt(int direct_tasks) : direct_tasks_(direct_tasks) {}
  void Execute(const Tuple& input, Collector* collector) override {
    const int64_t v = input.Get(0).AsInt();
    for (int64_t k = 0; k < 3; ++k) collector->Emit({Value(v), Value(k)});
    collector->EmitDirect(static_cast<int>(v % direct_tasks_),
                          {Value(v), Value(int64_t{-1})});
  }

 private:
  int direct_tasks_;
};

/// Records every (v, k) it executes, per (component, task).
class EdgeSink : public Bolt {
 public:
  struct Log {
    Mutex mutex;
    std::map<std::pair<std::string, int>,
             std::map<std::pair<int64_t, int64_t>, int>>
        seen GUARDED_BY(mutex);
  };
  explicit EdgeSink(std::shared_ptr<Log> log) : log_(std::move(log)) {}
  void Prepare(const TaskContext& context) override {
    key_ = {context.component, context.task_index};
  }
  void Execute(const Tuple& input, Collector*) override {
    MutexLock lock(log_->mutex);
    log_->seen[key_][{input.Get(0).AsInt(), input.Get(1).AsInt()}]++;
  }

 private:
  std::shared_ptr<Log> log_;
  std::pair<std::string, int> key_;
};

TEST(ReliabilityEndToEndTest, EveryGroupingAcksEachTreeExactlyOnce) {
  // One acked tree spans every grouping the router knows: shuffle into the
  // fan-out bolt, which emits several tuples per input over fields, all and
  // global edges plus one EmitDirect. Every tree must complete exactly once
  // with no replay, and every edge must execute exactly what it was sent.
  static constexpr int kTuples = 300;
  static constexpr int kDirectTasks = 3;
  auto log = std::make_shared<EdgeSink::Log>();
  auto spout = std::make_shared<std::atomic<RootedSpout*>>(nullptr);
  auto sink = [log] { return std::make_unique<EdgeSink>(log); };
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [spout] {
                     auto s = std::make_unique<RootedSpout>(kTuples);
                     spout->store(s.get());
                     return s;
                   },
                   Fields({"v"}));
  builder
      .SetBolt("fan", [] { return std::make_unique<FanOutBolt>(kDirectTasks); },
               Fields({"v", "k"}), 2, 3)
      .ShuffleGrouping("source");
  builder.SetBolt("byfields", sink, Fields({}), 2, 2)
      .FieldsGrouping("fan", {"v"});
  builder.SetBolt("everyone", sink, Fields({}), 2, 2).AllGrouping("fan");
  builder.SetBolt("single", sink, Fields({}), 1, 2).GlobalGrouping("fan");
  builder.SetBolt("direct", sink, Fields({}), 2, kDirectTasks)
      .DirectGrouping("fan");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  LocalRuntime::Options options;
  options.enable_acking = true;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(runtime.pending_trees(), 0u);
  auto* metrics = runtime.metrics();
  auto source = metrics->Totals("source");
  EXPECT_EQ(source.acked, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(source.failed, 0u);
  EXPECT_EQ(source.replayed, 0u);
  RootedSpout* instance = spout->load();
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->ack_calls, kTuples);
  EXPECT_EQ(instance->acked_ids.size(), static_cast<size_t>(kTuples));
  EXPECT_TRUE(instance->failed_ids.empty());

  // Per edge, emitted == executed: source -> fan carries one copy per tree;
  // fan's 3 Emits reach byfields once, everyone twice (2 tasks) and single
  // once each, and its EmitDirect reaches one direct task.
  const uint64_t n = kTuples;
  EXPECT_EQ(source.emitted, n);
  EXPECT_EQ(metrics->Totals("fan").executed, n);
  EXPECT_EQ(metrics->Totals("byfields").executed, 3 * n);
  EXPECT_EQ(metrics->Totals("everyone").executed, 2 * 3 * n);
  EXPECT_EQ(metrics->Totals("single").executed, 3 * n);
  EXPECT_EQ(metrics->Totals("direct").executed, n);
  EXPECT_EQ(metrics->Totals("fan").emitted, (3 + 6 + 3 + 1) * n);

  MutexLock lock(log->mutex);
  std::map<int64_t, int> fields_task_of;
  for (const auto& [key, seen] : log->seen) {
    const auto& [component, task] = key;
    for (const auto& [vk, count] : seen) {
      EXPECT_EQ(count, 1) << component << "/" << task << " ran (" << vk.first
                          << ", " << vk.second << ") " << count << " times";
      if (component == "byfields") {
        // Fields grouping: one task owns every tuple of a given v.
        auto it = fields_task_of.emplace(vk.first, task).first;
        EXPECT_EQ(it->second, task) << "v=" << vk.first << " split";
      } else if (component == "single") {
        EXPECT_EQ(task, 0);
      } else if (component == "direct") {
        EXPECT_EQ(task, vk.first % kDirectTasks);
        EXPECT_EQ(vk.second, -1);
      }
    }
  }
  for (int task = 0; task < 2; ++task) {
    EXPECT_EQ(log->seen[std::make_pair(std::string("everyone"), task)].size(),
              3u * kTuples);
  }
}

TEST(ReliabilityEndToEndTest, UnackedTopologySurvivesCrashViaSupervisor) {
  // No acking: the crashed tuple is lost but the supervisor restart keeps
  // the topology draining — without it, AwaitCompletion would hang.
  constexpr int kTuples = 1000;
  FaultPlan plan;
  plan.crashes.push_back({.component = "relay", .task = 0,
                          .after_executions = 100, .repeat = false});
  FaultInjector injector(plan);
  FaultyRunResult result =
      RunFaultyTopology(kTuples, /*acking=*/false, &injector);
  EXPECT_EQ(injector.crashes_injected(), 1u);
  EXPECT_GE(result.restarts, 1u);
  // Exactly the one mid-execute tuple is lost.
  EXPECT_EQ(result.distinct(), static_cast<size_t>(kTuples) - 1);
}

TEST(ReliabilityEndToEndTest, ExhaustedReplaysFailTheMessage) {
  // Drop everything on relay->sink: no tree can ever complete, so every
  // message burns its replay budget and Fail() fires.
  static constexpr int kTuples = 5;
  FaultPlan plan;
  plan.routes.push_back({.source = "relay", .dest = "sink",
                         .drop_probability = 1.0});
  FaultInjector injector(plan);

  auto sink = std::make_shared<CountingSink::Sink>();
  auto spout = std::make_shared<std::atomic<RootedSpout*>>(nullptr);
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [spout] {
                     auto s = std::make_unique<RootedSpout>(kTuples);
                     spout->store(s.get());
                     return s;
                   },
                   Fields({"v"}));
  builder.SetBolt("relay", [] { return std::make_unique<RelayBolt>(); },
                  Fields({"v"}))
      .ShuffleGrouping("source");
  builder.SetBolt("sink", [sink] { return std::make_unique<CountingSink>(sink); },
                  Fields({}))
      .ShuffleGrouping("relay");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.enable_acking = true;
  options.ack_timeout_micros = 10'000;
  options.max_replays = 2;
  options.replay_backoff_micros = 1'000;
  options.supervisor_interval_micros = 1'000;
  options.fault_injector = &injector;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  auto totals = runtime.metrics()->Totals("source");
  EXPECT_EQ(totals.acked, 0u);
  // Each message: initial emission + 2 replays, all timing out.
  EXPECT_EQ(totals.replayed, static_cast<uint64_t>(kTuples) * 2);
  EXPECT_EQ(totals.failed, static_cast<uint64_t>(kTuples) * 3);
  RootedSpout* instance = spout->load();
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->failed_ids.size(), static_cast<size_t>(kTuples));
  EXPECT_TRUE(instance->acked_ids.empty());
  EXPECT_EQ(runtime.pending_trees(), 0u);
}

TEST(ReliabilityEndToEndTest, DuplicatesDeliveredAtLeastOnceNotExactlyOnce) {
  // 100% duplication on source->relay: the sink sees >= 2N tuples while
  // every tree still completes (duplicates are tracked edges too).
  constexpr int kTuples = 200;
  FaultPlan plan;
  plan.routes.push_back({.source = "source", .dest = "relay",
                         .duplicate_probability = 1.0});
  FaultInjector injector(plan);
  FaultyRunResult result =
      RunFaultyTopology(kTuples, /*acking=*/true, &injector);
  EXPECT_EQ(result.distinct(), static_cast<size_t>(kTuples));
  size_t total = 0;
  {
    MutexLock lock(result.sink->mutex);
    for (const auto& [value, count] : result.sink->counts) {
      total += static_cast<size_t>(count);
    }
  }
  EXPECT_GE(total, static_cast<size_t>(2 * kTuples));
  EXPECT_EQ(result.spout_totals.acked, static_cast<uint64_t>(kTuples));
}

/// Emits `n` rooted tuples with message ids 1..n and counts its callbacks
/// through shared state (the factory owns the instance).
class CountedIdSpout : public Spout {
 public:
  struct Counts {
    std::atomic<int> acked{0};
    std::atomic<int> failed{0};
  };
  CountedIdSpout(int n, std::shared_ptr<Counts> counts)
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

TEST(ReliabilityEndToEndTest, OverlappingSpoutMessageIdsResolveIndependently) {
  // Two spouts numbering their streams 1..N concurrently: message ids are
  // only unique per spout task, so the acker and replay buffer must scope
  // their keys by the emitting task. Regression for a cross-spout id
  // collision that overwrote one tree's accumulator, leaked a pending
  // root, and hung AwaitCompletion forever.
  static constexpr int kPerSpout = 300;
  auto counts_a = std::make_shared<CountedIdSpout::Counts>();
  auto counts_b = std::make_shared<CountedIdSpout::Counts>();
  auto sink = std::make_shared<CountingSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("a", [counts_a] {
    return std::make_unique<CountedIdSpout>(kPerSpout, counts_a);
  }, Fields({"v"}));
  builder.SetSpout("b", [counts_b] {
    return std::make_unique<CountedIdSpout>(kPerSpout, counts_b);
  }, Fields({"v"}));
  builder.SetBolt("sink", [sink] { return std::make_unique<CountingSink>(sink); },
                  Fields({}))
      .ShuffleGrouping("a")
      .ShuffleGrouping("b");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.enable_acking = true;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  EXPECT_EQ(counts_a->acked.load(), kPerSpout);
  EXPECT_EQ(counts_b->acked.load(), kPerSpout);
  EXPECT_EQ(counts_a->failed.load(), 0);
  EXPECT_EQ(counts_b->failed.load(), 0);
  size_t total = 0;
  {
    MutexLock lock(sink->mutex);
    for (const auto& [value, count] : sink->counts) {
      total += static_cast<size_t>(count);
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(2 * kPerSpout));
  runtime.Stop();
}

// ---------------------------------------------------------------------------
// Replay backoff
// ---------------------------------------------------------------------------

TEST(ReplayBackoffTest, BackoffGrowsExponentiallyPerAttempt) {
  ReplayPolicy policy;
  policy.backoff_base_micros = 10'000;
  policy.backoff_factor = 2.0;
  ReplayBuffer buffer(policy);
  EXPECT_EQ(buffer.BackoffFor(1), 10'000);
  EXPECT_EQ(buffer.BackoffFor(2), 20'000);
  EXPECT_EQ(buffer.BackoffFor(3), 40'000);
}

TEST(ReplayBackoffTest, FailSchedulesTheBackoffDelay) {
  ReplayPolicy policy;
  policy.max_replays = 3;
  policy.backoff_base_micros = 10'000;
  ReplayBuffer buffer(policy);
  buffer.Store(7, 0, 0, {Value(int64_t{1})});

  const MicrosT expected = buffer.BackoffFor(1);
  ASSERT_TRUE(buffer.Fail(7, 0, 0, /*now=*/1'000'000));
  // Not due one tick before the deadline, due exactly at it.
  EXPECT_TRUE(buffer.TakeDue(0, 0, 1'000'000 + expected - 1).empty());
  std::vector<ReplayBuffer::Due> due =
      buffer.TakeDue(0, 0, 1'000'000 + expected);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].message_id, 7u);
  EXPECT_EQ(due[0].attempt, 1);
}

}  // namespace
}  // namespace reliability
}  // namespace insight
