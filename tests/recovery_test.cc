// Stateful recovery: checkpoint/restore units (DedupLedger, StateStore,
// CheckpointCoordinator), cep::Engine snapshot round trips, and the
// end-to-end acceptance run — a topology crashed mid-window under the
// FaultInjector with checkpointing + dedup enabled must reproduce exactly
// the Listing-1 windowed-average detections of a fault-free run.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cep/engine.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dfs/mini_dfs.h"
#include "dsps/local_runtime.h"
#include "dsps/topology.h"
#include "observability/trace.h"
#include "reliability/checkpoint.h"
#include "reliability/fault_injector.h"
#include "reliability/state_store.h"

namespace insight {
namespace reliability {
namespace {

using dsps::Bolt;
using dsps::Collector;
using dsps::Fields;
using dsps::LocalRuntime;
using dsps::Snapshottable;
using dsps::Spout;
using dsps::TaskContext;
using dsps::TopologyBuilder;
using dsps::Tuple;
using dsps::Value;

// ---------------------------------------------------------------------------
// DedupLedger
// ---------------------------------------------------------------------------

TEST(DedupLedgerTest, BoundedFifoEviction) {
  DedupLedger ledger(3);
  ledger.Insert(1);
  ledger.Insert(2);
  ledger.Insert(3);
  EXPECT_TRUE(ledger.Contains(1));
  ledger.Insert(4);  // evicts 1 (oldest)
  EXPECT_FALSE(ledger.Contains(1));
  EXPECT_TRUE(ledger.Contains(2));
  EXPECT_TRUE(ledger.Contains(4));
  EXPECT_EQ(ledger.size(), 3u);
}

TEST(DedupLedgerTest, ReinsertDoesNotGrow) {
  DedupLedger ledger(4);
  ledger.Insert(7);
  ledger.Insert(7);
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(DedupLedgerTest, SerializeRoundTrip) {
  DedupLedger ledger(8);
  for (uint64_t id = 10; id < 15; ++id) ledger.Insert(id);
  std::string bytes;
  ByteWriter writer(&bytes);
  ledger.Serialize(&writer);

  DedupLedger restored(8);
  ByteReader reader(bytes);
  ASSERT_TRUE(restored.Deserialize(&reader));
  EXPECT_EQ(restored.size(), 5u);
  for (uint64_t id = 10; id < 15; ++id) EXPECT_TRUE(restored.Contains(id));
  // FIFO order survives: inserting 3 more evicts exactly 10, 11, 12.
  for (uint64_t id = 20; id < 23; ++id) restored.Insert(id);
  restored.Insert(30);
  EXPECT_FALSE(restored.Contains(10));
  EXPECT_TRUE(restored.Contains(11));
}

TEST(DedupLedgerTest, DeserializeRejectsOversizedAndTruncated) {
  DedupLedger big(100);
  for (uint64_t id = 0; id < 10; ++id) big.Insert(id + 1);
  std::string bytes;
  ByteWriter writer(&bytes);
  big.Serialize(&writer);

  DedupLedger small(5);  // stored count 10 exceeds capacity 5
  ByteReader reader(bytes);
  EXPECT_FALSE(small.Deserialize(&reader));
  EXPECT_EQ(small.size(), 0u);

  DedupLedger other(100);
  std::string truncated = bytes.substr(0, bytes.size() - 3);
  ByteReader cut(truncated);
  EXPECT_FALSE(other.Deserialize(&cut));
  EXPECT_EQ(other.size(), 0u);
}

// ---------------------------------------------------------------------------
// StateStore implementations
// ---------------------------------------------------------------------------

TEST(InMemoryStateStoreTest, PutGetLatestRemove) {
  InMemoryStateStore store;
  EXPECT_EQ(store.GetLatest("a").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.Put("a", 1, "one").ok());
  ASSERT_TRUE(store.Put("a", 2, "two").ok());
  auto latest = store.GetLatest("a");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->epoch, 2u);
  EXPECT_EQ(latest->bytes, "two");
  // Epochs must advance.
  EXPECT_FALSE(store.Put("a", 2, "dup").ok());
  ASSERT_TRUE(store.Remove("a").ok());
  EXPECT_EQ(store.GetLatest("a").status().code(), StatusCode::kNotFound);
}

TEST(DfsStateStoreTest, PersistsThroughMiniDfsAndPrunes) {
  dfs::MiniDfs dfs;
  DfsStateStore store(&dfs, "/ckpt");
  ASSERT_TRUE(store.Put("detect/0", 1, "epoch-one").ok());
  ASSERT_TRUE(store.Put("detect/0", 5, "epoch-five").ok());
  auto latest = store.GetLatest("detect/0");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->epoch, 5u);
  EXPECT_EQ(latest->bytes, "epoch-five");
  // Older epochs are garbage-collected once the new one is durable.
  EXPECT_EQ(dfs.List("/ckpt/detect/0/").size(), 1u);
  // Epoch reuse is refused (strictly increasing per key).
  EXPECT_FALSE(store.Put("detect/0", 5, "again").ok());

  // A second store instance over the same DFS sees the durable snapshot —
  // the restart path.
  DfsStateStore reopened(&dfs, "/ckpt");
  auto after = reopened.GetLatest("detect/0");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch, 5u);

  ASSERT_TRUE(store.Remove("detect/0").ok());
  EXPECT_EQ(store.GetLatest("detect/0").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// CheckpointCoordinator
// ---------------------------------------------------------------------------

void WaitForPersisted(const CheckpointCoordinator& coordinator,
                      uint64_t target) {
  while (coordinator.persisted() + coordinator.persist_failures() < target) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TEST(CheckpointCoordinatorTest, IntervalGatesAndEpochsIncrease) {
  InMemoryStateStore store;
  ManualClock clock(1'000);
  CheckpointCoordinator::Options options;
  options.interval_micros = 100;
  options.store = &store;
  options.clock = &clock;
  CheckpointCoordinator coordinator(options);
  // RegisterTask seeds next_due one interval out.
  int slot = coordinator.RegisterTask("detect/0");
  coordinator.Start();

  EXPECT_FALSE(coordinator.Due(slot, clock.NowMicros()));
  clock.Advance(100);
  ASSERT_TRUE(coordinator.Due(slot, clock.NowMicros()));
  uint64_t epoch1 = coordinator.Submit(slot, "state-a", nullptr);
  WaitForPersisted(coordinator, 1);
  // Interval not yet elapsed: not due, but a forced submit is allowed.
  EXPECT_FALSE(coordinator.Due(slot, clock.NowMicros()));
  EXPECT_TRUE(coordinator.CanSubmit(slot));
  clock.Advance(200);
  ASSERT_TRUE(coordinator.Due(slot, clock.NowMicros()));
  uint64_t epoch2 = coordinator.Submit(slot, "state-b", nullptr);
  EXPECT_GT(epoch2, epoch1);
  WaitForPersisted(coordinator, 2);

  auto loaded = coordinator.BarrierAndLoad(slot);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->epoch, epoch2);
  EXPECT_EQ(loaded->bytes, "state-b");
  EXPECT_EQ(coordinator.persisted(), 2u);
  EXPECT_EQ(coordinator.persist_failures(), 0u);
  coordinator.Stop();
}

TEST(CheckpointCoordinatorTest, DoneCallbackSeesPersistOutcome) {
  InMemoryStateStore store;
  CheckpointCoordinator::Options options;
  options.store = &store;
  CheckpointCoordinator coordinator(options);
  int slot = coordinator.RegisterTask("t/0");
  coordinator.Start();

  struct Outcome {
    Mutex mutex;
    std::vector<bool> ok GUARDED_BY(mutex);
  };
  auto outcome = std::make_shared<Outcome>();
  coordinator.Submit(slot, "bytes", [outcome](uint64_t, const Status& s) {
    MutexLock lock(outcome->mutex);
    outcome->ok.push_back(s.ok());
  });
  WaitForPersisted(coordinator, 1);
  coordinator.Stop();
  MutexLock lock(outcome->mutex);
  ASSERT_EQ(outcome->ok.size(), 1u);
  EXPECT_TRUE(outcome->ok[0]);
}

/// Store whose writes always fail — persist failures must be surfaced to the
/// completion callback and counted, never crash.
class FailingStore : public StateStore {
 public:
  Status Put(const std::string&, uint64_t, const std::string&) override {
    return Status::Internal("disk on fire");
  }
  Result<Snapshot> GetLatest(const std::string&) const override {
    return Status::NotFound("nothing here");
  }
  Status Remove(const std::string&) override { return Status::OK(); }
};

TEST(CheckpointCoordinatorTest, PersistFailureCountedAndReported) {
  FailingStore store;
  CheckpointCoordinator::Options options;
  options.store = &store;
  CheckpointCoordinator coordinator(options);
  int slot = coordinator.RegisterTask("t/0");
  coordinator.Start();
  struct Outcome {
    Mutex mutex;
    std::vector<bool> ok GUARDED_BY(mutex);
  };
  auto outcome = std::make_shared<Outcome>();
  coordinator.Submit(slot, "bytes", [outcome](uint64_t, const Status& s) {
    MutexLock lock(outcome->mutex);
    outcome->ok.push_back(s.ok());
  });
  WaitForPersisted(coordinator, 1);
  EXPECT_EQ(coordinator.persist_failures(), 1u);
  EXPECT_EQ(coordinator.persisted(), 0u);
  // A failed persist releases the in-flight slot for the next attempt.
  EXPECT_TRUE(coordinator.CanSubmit(slot));
  coordinator.Stop();
  MutexLock lock(outcome->mutex);
  ASSERT_EQ(outcome->ok.size(), 1u);
  EXPECT_FALSE(outcome->ok[0]);
}

TEST(CheckpointCoordinatorTest, CountersMoveOnlyOnceTheSlotIsReleased) {
  // A `done` callback that is slow to return holds the persist window open.
  // Whoever sees a counter move must find the slot free again: a caller that
  // gates its next Submit on the counter would otherwise trip Submit's
  // one-in-flight check. Covers a persisted and a failed persist.
  InMemoryStateStore good;
  FailingStore bad;
  for (StateStore* store : {static_cast<StateStore*>(&good),
                            static_cast<StateStore*>(&bad)}) {
    CheckpointCoordinator::Options options;
    options.store = store;
    CheckpointCoordinator coordinator(options);
    int slot = coordinator.RegisterTask("t/0");
    coordinator.Start();
    for (uint64_t round = 1; round <= 3; ++round) {
      coordinator.Submit(slot, "bytes", [](uint64_t, const Status&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
      WaitForPersisted(coordinator, round);
      ASSERT_TRUE(coordinator.CanSubmit(slot)) << "round " << round;
    }
    coordinator.Stop();
  }
}

// ---------------------------------------------------------------------------
// cep::Engine snapshot round trip
// ---------------------------------------------------------------------------

// The generic rule template of Listing 1 (see cep_engine_test.cc).
constexpr char kListing1[] = R"(
    @Trigger(bus)
    SELECT *
    FROM bus.std:lastevent() as bd,
         bus.std:groupwin(location).win:length(3) as bd2,
         thresholdLocation.win:keepall() as thresholds
    WHERE bd.hour = thresholds.hour and bd.day = thresholds.day and
          bd.location = thresholds.location and bd.location = bd2.location
    GROUP BY bd2.location
    HAVING avg(bd2.delay) > avg(thresholds.delay))";

class SnapshotEngine {
 public:
  SnapshotEngine() {
    EXPECT_TRUE(engine.RegisterEventType("bus",
                                         {{"timestamp", cep::ValueType::kInt},
                                          {"location", cep::ValueType::kInt},
                                          {"hour", cep::ValueType::kInt},
                                          {"day", cep::ValueType::kString},
                                          {"delay", cep::ValueType::kDouble}})
                    .ok());
    EXPECT_TRUE(engine
                    .RegisterEventType("thresholdLocation",
                                       {{"location", cep::ValueType::kInt},
                                        {"hour", cep::ValueType::kInt},
                                        {"day", cep::ValueType::kString},
                                        {"delay", cep::ValueType::kDouble}})
                    .ok());
    auto stmt = engine.AddStatement(kListing1, "generic");
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    statement = *stmt;
    statement->AddListener([this](const cep::MatchResult&) { ++matches; });
  }

  void SendThreshold(int64_t location, double delay) {
    engine.SendEvent(engine.NewEvent("thresholdLocation")
                         .Set("location", location)
                         .Set("hour", int64_t{8})
                         .Set("day", std::string("weekday"))
                         .Set("delay", delay)
                         .Build());
  }

  void SendBus(int64_t ts, int64_t location, double delay) {
    engine.SendEvent(engine.NewEvent("bus")
                         .Set("timestamp", ts)
                         .Set("location", location)
                         .Set("hour", int64_t{8})
                         .Set("day", std::string("weekday"))
                         .Set("delay", delay)
                         .SetTimestamp(ts)
                         .Build());
  }

  cep::Engine engine;
  cep::Statement* statement = nullptr;
  size_t matches = 0;
};

TEST(EngineSnapshotTest, MidWindowSnapshotRestoresExactBehaviour) {
  SnapshotEngine original;
  original.SendThreshold(7, 100.0);
  original.SendBus(1, 7, 50.0);
  original.SendBus(2, 7, 100.0);  // window {50, 100}: mid-window state
  ASSERT_EQ(original.matches, 0u);

  std::string snapshot;
  ASSERT_TRUE(original.engine.Snapshot(&snapshot).ok());

  SnapshotEngine restored;
  ASSERT_TRUE(restored.engine.Restore(snapshot).ok());

  // Both engines now receive the same continuation; behaviour must match
  // event for event (avg {100,150,200} = 150 > 100 fires on both).
  original.SendBus(3, 7, 150.0);
  restored.SendBus(3, 7, 150.0);
  original.SendBus(4, 7, 200.0);
  restored.SendBus(4, 7, 200.0);
  EXPECT_EQ(original.matches, restored.matches);
  EXPECT_GT(restored.matches, 0u);
}

TEST(EngineSnapshotTest, CorruptSnapshotFailsCleanlyIntoFreshState) {
  SnapshotEngine original;
  original.SendThreshold(7, 100.0);
  for (int i = 0; i < 5; ++i) original.SendBus(i, 7, 200.0);
  std::string snapshot;
  ASSERT_TRUE(original.engine.Snapshot(&snapshot).ok());

  SnapshotEngine victim;
  std::string garbage = snapshot;
  for (size_t i = 8; i < garbage.size(); i += 2) garbage[i] ^= 0x5a;
  std::string truncated = snapshot.substr(0, snapshot.size() / 2);
  EXPECT_FALSE(victim.engine.Restore(garbage).ok());
  EXPECT_FALSE(victim.engine.Restore(truncated).ok());
  EXPECT_FALSE(victim.engine.Restore("not a snapshot").ok());

  // The failed restores left clean state: with no threshold in the keepall
  // window, nothing can fire.
  victim.SendBus(10, 7, 500.0);
  victim.SendBus(11, 7, 500.0);
  EXPECT_EQ(victim.matches, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end fixtures
// ---------------------------------------------------------------------------

/// Emits its messages strictly serially: the next rooted tuple goes out only
/// after the previous one resolved. This gives the run a total order over
/// root tuples — a replayed message cannot overtake a newer one — so the
/// Listing-1 window contents (and hence the detections) of a crash-recovered
/// run are comparable event-for-event with a fault-free run.
class SerialSpout : public Spout {
 public:
  struct Log {
    Mutex mutex;
    std::set<uint64_t> acked GUARDED_BY(mutex);
    std::set<uint64_t> failed GUARDED_BY(mutex);
  };

  SerialSpout(std::shared_ptr<const std::vector<std::vector<Value>>> messages,
              std::shared_ptr<Log> log)
      : messages_(std::move(messages)), log_(std::move(log)) {}

  bool NextTuple(Collector* collector) override {
    if (waiting_) return true;  // previous message still in flight
    if (next_ >= messages_->size()) return false;
    collector->EmitRooted(next_ + 1, (*messages_)[next_]);  // nonzero ids
    ++next_;
    waiting_ = true;
    return true;
  }
  void Ack(uint64_t id) override {
    waiting_ = false;
    MutexLock lock(log_->mutex);
    log_->acked.insert(id);
  }
  void Fail(uint64_t id) override {
    waiting_ = false;
    MutexLock lock(log_->mutex);
    log_->failed.insert(id);
  }

 private:
  std::shared_ptr<const std::vector<std::vector<Value>>> messages_;
  std::shared_ptr<Log> log_;
  size_t next_ = 0;
  bool waiting_ = false;
};

/// One Listing-1 engine per task (the EsperBolt pattern): converts
/// (timestamp, location, delay) tuples to bus events and emits a
/// (location, timestamp) detection per match. Snapshottable by forwarding
/// to the engine, exactly like traffic::EsperBolt.
class Listing1Bolt : public Bolt, public Snapshottable {
 public:
  void Prepare(const TaskContext&) override {
    holder_ = std::make_unique<SnapshotEngine>();
    // Preload the threshold stream before any restore (Section 4.3.1); a
    // restored snapshot re-creates these from its keepall window.
    for (int64_t location = 1; location <= 4; ++location) {
      holder_->SendThreshold(location, 100.0);
    }
    holder_->statement->AddListener([this](const cep::MatchResult& m) {
      pending_.push_back({*m.Get("bd.location"), *m.Get("bd.timestamp")});
    });
  }

  void Execute(const Tuple& input, Collector* collector) override {
    holder_->SendBus(input.Get(0).AsInt(), input.Get(1).AsInt(),
                     input.Get(2).AsDouble());
    for (auto& detection : pending_) collector->Emit(std::move(detection));
    pending_.clear();
  }

  Status SnapshotState(std::string* out) const override {
    return holder_->engine.Snapshot(out);
  }
  Status RestoreState(const std::string& bytes) override {
    return holder_->engine.Restore(bytes);
  }

 private:
  std::unique_ptr<SnapshotEngine> holder_;
  std::vector<std::vector<Value>> pending_;
};

/// Terminal detection recorder. Snapshottable (trivially) so the runtime
/// checkpoints it and arms its dedup ledger — re-emitted detections from a
/// replayed upstream execution must be suppressed here, not double-counted.
class DetectionSink : public Bolt, public Snapshottable {
 public:
  struct Sink {
    Mutex mutex;
    std::map<std::pair<int64_t, int64_t>, int> counts GUARDED_BY(mutex);
  };
  explicit DetectionSink(std::shared_ptr<Sink> sink) : sink_(std::move(sink)) {}
  void Execute(const Tuple& input, Collector*) override {
    MutexLock lock(sink_->mutex);
    sink_->counts[{input.Get(0).AsInt(), input.Get(1).AsInt()}]++;
  }
  Status SnapshotState(std::string* out) const override {
    out->assign(1, '\x01');  // externally recorded; only the ledger matters
    return Status::OK();
  }
  Status RestoreState(const std::string&) override { return Status::OK(); }

 private:
  std::shared_ptr<Sink> sink_;
};

std::shared_ptr<const std::vector<std::vector<Value>>> BusMessages(int n) {
  // Locations cycle 1..4; delays ramp across the threshold (100) so every
  // location's length-3 window crosses it mid-stream — detections depend on
  // exact window contents, which is what recovery must preserve.
  auto messages = std::make_shared<std::vector<std::vector<Value>>>();
  for (int i = 0; i < n; ++i) {
    messages->push_back({Value(int64_t{i + 1}),
                         Value(int64_t{i % 4 + 1}),
                         Value(40.0 + 3.0 * static_cast<double>(i))});
  }
  return messages;
}

struct RecoveryRun {
  std::map<std::pair<int64_t, int64_t>, int> detections;
  std::shared_ptr<SerialSpout::Log> log;
  dsps::MetricsRegistry::ComponentTotals detect_totals;
  dsps::MetricsRegistry::ComponentTotals source_totals;
  uint64_t restarts = 0;
};

RecoveryRun RunListing1Topology(int n, FaultInjector* injector,
                                StateStore* store) {
  auto messages = BusMessages(n);
  auto log = std::make_shared<SerialSpout::Log>();
  auto sink = std::make_shared<DetectionSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [messages, log] {
                     return std::make_unique<SerialSpout>(messages, log);
                   },
                   Fields({"timestamp", "location", "delay"}));
  builder
      .SetBolt("detect", [] { return std::make_unique<Listing1Bolt>(); },
               Fields({"location", "timestamp"}), 2)
      .FieldsGrouping("source", {"location"});
  builder
      .SetBolt("sink", [sink] { return std::make_unique<DetectionSink>(sink); },
               Fields({}))
      .GlobalGrouping("detect");
  auto topology = builder.Build();
  EXPECT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.enable_acking = true;
  options.ack_timeout_micros = 50'000;
  options.max_replays = 20;
  options.replay_backoff_micros = 2'000;
  options.supervisor_interval_micros = 1'000;
  options.fault_injector = injector;
  options.enable_checkpointing = true;
  options.checkpoint_interval_micros = 10'000;
  options.state_store = store;
  options.enable_replay_dedup = true;
  LocalRuntime runtime(std::move(*topology), options);
  EXPECT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  RecoveryRun run;
  {
    MutexLock lock(sink->mutex);
    run.detections = sink->counts;
  }
  run.log = log;
  run.detect_totals = runtime.metrics()->Totals("detect");
  run.source_totals = runtime.metrics()->Totals("source");
  run.restarts = runtime.executor_restarts();
  return run;
}

// ---------------------------------------------------------------------------
// The acceptance run: mid-window crashes, identical Listing-1 detections
// ---------------------------------------------------------------------------

TEST(RecoveryEndToEndTest, CrashedRunReproducesFaultFreeListing1Averages) {
  constexpr int kMessages = 48;

  InMemoryStateStore clean_store;
  RecoveryRun clean = RunListing1Topology(kMessages, nullptr, &clean_store);
  ASSERT_FALSE(clean.detections.empty());
  EXPECT_EQ(clean.restarts, 0u);
  {
    MutexLock lock(clean.log->mutex);
    ASSERT_EQ(clean.log->acked.size(), static_cast<size_t>(kMessages));
    EXPECT_TRUE(clean.log->failed.empty());
  }

  // Same topology, same messages, but the detect tasks are killed
  // mid-window (each task dies on its 5th and 13th execution) and the
  // checkpoints live in the MiniDfs. Recovery = restore-from-DFS + tree
  // replay + ledger dedup.
  FaultPlan plan;
  plan.crashes.push_back({.component = "detect", .task = -1,
                          .after_executions = 5, .repeat = false});
  plan.crashes.push_back({.component = "detect", .task = -1,
                          .after_executions = 13, .repeat = false});
  FaultInjector injector(plan);
  dfs::MiniDfs dfs;
  DfsStateStore dfs_store(&dfs, "/checkpoints");
  RecoveryRun faulty = RunListing1Topology(kMessages, &injector, &dfs_store);

  // Faults really fired and really healed.
  EXPECT_GE(injector.crashes_injected(), 2u);
  EXPECT_GE(faulty.restarts, 2u);
  EXPECT_GT(faulty.detect_totals.checkpoints, 0u);
  EXPECT_GE(faulty.detect_totals.checkpoint_restores, 2u);
  EXPECT_EQ(faulty.detect_totals.checkpoint_restore_failures, 0u);
  {
    MutexLock lock(faulty.log->mutex);
    EXPECT_EQ(faulty.log->acked.size(), static_cast<size_t>(kMessages));
    EXPECT_TRUE(faulty.log->failed.empty());
  }

  // The acceptance bar: detection multiset identical to the fault-free run
  // — same windowed averages crossed the threshold at the same events, and
  // nothing was detected twice.
  EXPECT_EQ(faulty.detections, clean.detections);
  for (const auto& [detection, count] : faulty.detections) {
    EXPECT_EQ(count, 1) << "duplicate detection for location "
                        << detection.first << " at t=" << detection.second;
  }
}

// ---------------------------------------------------------------------------
// Replay dedup at a checkpointed task
// ---------------------------------------------------------------------------

/// Rooted spout + slow Snapshottable counter: with an ack timeout shorter
/// than the drain time, trees expire and replay while the counter has
/// already absorbed them. The ledger must suppress the re-executions.
class RootedBurstSpout : public Spout {
 public:
  explicit RootedBurstSpout(int n) : n_(n) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->EmitRooted(static_cast<uint64_t>(next_ + 1),
                          {Value(int64_t{next_})});
    ++next_;
    return next_ < n_;
  }

 private:
  int n_;
  int next_ = 0;
};

class SlowCountingState : public Bolt, public Snapshottable {
 public:
  struct Sink {
    Mutex mutex;
    std::map<int64_t, int> counts GUARDED_BY(mutex);
  };
  explicit SlowCountingState(std::shared_ptr<Sink> sink)
      : sink_(std::move(sink)) {}
  void Execute(const Tuple& input, Collector*) override {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    MutexLock lock(sink_->mutex);
    sink_->counts[input.Get(0).AsInt()]++;
  }
  Status SnapshotState(std::string* out) const override {
    out->assign(1, '\x01');
    return Status::OK();
  }
  Status RestoreState(const std::string&) override { return Status::OK(); }

 private:
  std::shared_ptr<Sink> sink_;
};

TEST(RecoveryEndToEndTest, LedgerSuppressesReplayedDuplicates) {
  constexpr int kTuples = 40;
  auto sink = std::make_shared<SlowCountingState::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [=] { return std::make_unique<RootedBurstSpout>(kTuples); },
                   Fields({"v"}));
  builder
      .SetBolt("count",
               [sink] { return std::make_unique<SlowCountingState>(sink); },
               Fields({}))
      .GlobalGrouping("source");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  InMemoryStateStore store;
  LocalRuntime::Options options;
  options.enable_acking = true;
  options.ack_timeout_micros = 5'000;  // shorter than the queue drain time
  options.max_replays = 50;
  options.replay_backoff_micros = 1'000;
  options.supervisor_interval_micros = 1'000;
  options.enable_checkpointing = true;
  // Interval far beyond the test: acks flush only via idle-forced
  // checkpoints, keeping many trees open long enough to expire.
  options.checkpoint_interval_micros = 10'000'000;
  options.state_store = &store;
  options.enable_replay_dedup = true;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  // Effectively-once: every value counted exactly once despite the replays.
  {
    MutexLock lock(sink->mutex);
    ASSERT_EQ(sink->counts.size(), static_cast<size_t>(kTuples));
    for (const auto& [value, count] : sink->counts) {
      EXPECT_EQ(count, 1) << "value " << value << " double-counted";
    }
  }
  auto totals = runtime.metrics()->Totals("count");
  EXPECT_GT(totals.deduped, 0u);  // replays actually reached the ledger
  auto source = runtime.metrics()->Totals("source");
  EXPECT_GT(source.replayed, 0u);
  EXPECT_EQ(runtime.pending_trees(), 0u);
}

TEST(RecoveryEndToEndTest, TraceLifecycleSurvivesReplayAndDedup) {
  // Trace spans under crash/replay: an expired attempt's trace is
  // abandoned, the replayed attempt opens a fresh one, and a deduped
  // re-execution never closes a root span twice — at quiescence every
  // sampled root is accounted for as exactly one completion or abandonment.
  constexpr int kTuples = 40;
  auto sink = std::make_shared<SlowCountingState::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [=] { return std::make_unique<RootedBurstSpout>(kTuples); },
                   Fields({"v"}));
  builder
      .SetBolt("count",
               [sink] { return std::make_unique<SlowCountingState>(sink); },
               Fields({}))
      .GlobalGrouping("source");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  InMemoryStateStore store;
  LocalRuntime::Options options;
  options.enable_acking = true;
  options.ack_timeout_micros = 5'000;  // shorter than the queue drain time
  options.max_replays = 50;
  options.replay_backoff_micros = 1'000;
  options.supervisor_interval_micros = 1'000;
  options.enable_checkpointing = true;
  options.checkpoint_interval_micros = 10'000'000;
  options.state_store = &store;
  options.enable_replay_dedup = true;
  options.enable_tracing = true;
  options.trace_sample_rate = 1.0;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  // The run still behaves effectively-once with tracing on.
  {
    MutexLock lock(sink->mutex);
    ASSERT_EQ(sink->counts.size(), static_cast<size_t>(kTuples));
    for (const auto& [value, count] : sink->counts) {
      EXPECT_EQ(count, 1) << "value " << value << " double-counted";
    }
  }
  EXPECT_GT(runtime.metrics()->Totals("count").deduped, 0u);
  EXPECT_GT(runtime.metrics()->Totals("source").replayed, 0u);
  EXPECT_EQ(runtime.pending_trees(), 0u);

  ASSERT_NE(runtime.tracer(), nullptr);
  observability::Tracer::Stats stats = runtime.tracer()->stats();
  // Every root emission (first attempts + replays) was sampled at rate 1.0.
  EXPECT_GE(stats.started, static_cast<uint64_t>(kTuples));
  // Trees expired and replayed, so some attempts' traces were abandoned...
  EXPECT_GE(stats.abandoned, 1u);
  // ...and each tuple's surviving attempt completed exactly once: a deduped
  // duplicate execution must never close a root span a second time.
  EXPECT_EQ(stats.double_completions, 0u);
  // At quiescence nothing is left open: sampled roots partition exactly
  // into completions and abandonments.
  EXPECT_EQ(stats.started, stats.completed + stats.abandoned);
}

// ---------------------------------------------------------------------------
// Corrupt snapshots (satellite: never crash, clean-state restart + metric)
// ---------------------------------------------------------------------------

class CountingState : public Bolt, public Snapshottable {
 public:
  struct Sink {
    Mutex mutex;
    std::map<int64_t, int> counts GUARDED_BY(mutex);
  };
  explicit CountingState(std::shared_ptr<Sink> sink)
      : sink_(std::move(sink)) {}
  void Execute(const Tuple& input, Collector*) override {
    MutexLock lock(sink_->mutex);
    sink_->counts[input.Get(0).AsInt()]++;
  }
  Status SnapshotState(std::string* out) const override {
    out->assign(1, '\x01');
    return Status::OK();
  }
  Status RestoreState(const std::string&) override { return Status::OK(); }

 private:
  std::shared_ptr<Sink> sink_;
};

void RunWithPoisonedStore(const std::string& snapshot_bytes,
                          uint64_t expected_failures) {
  InMemoryStateStore store;
  // Poison the exact key the runtime derives for the task ("count/0").
  ASSERT_TRUE(store.Put("count/0", 1, snapshot_bytes).ok());

  constexpr int kTuples = 100;
  auto sink = std::make_shared<CountingState::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [=] { return std::make_unique<RootedBurstSpout>(kTuples); },
                   Fields({"v"}));
  builder
      .SetBolt("count",
               [sink] { return std::make_unique<CountingState>(sink); },
               Fields({}))
      .GlobalGrouping("source");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime::Options options;
  options.enable_acking = true;
  options.enable_checkpointing = true;
  options.state_store = &store;
  options.enable_replay_dedup = true;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  // The corrupt snapshot degraded to a clean-state start: the run completed
  // normally, the failure was counted, nothing was restored.
  auto totals = runtime.metrics()->Totals("count");
  EXPECT_EQ(totals.checkpoint_restore_failures, expected_failures);
  EXPECT_EQ(totals.checkpoint_restores, 0u);
  EXPECT_EQ(totals.executed, static_cast<uint64_t>(kTuples));
  MutexLock lock(sink->mutex);
  EXPECT_EQ(sink->counts.size(), static_cast<size_t>(kTuples));
}

TEST(RecoveryEndToEndTest, GarbageSnapshotFallsBackToCleanState) {
  RunWithPoisonedStore("complete garbage, not a snapshot at all", 1);
}

TEST(RecoveryEndToEndTest, TruncatedSnapshotFallsBackToCleanState) {
  // A container with a valid header but no body: decodes the magic and
  // version, then hits the truncation.
  std::string bytes;
  ByteWriter writer(&bytes);
  writer.PutU32(0x314b4354);  // "TCK1"
  writer.PutU32(1);
  writer.PutU8(0);
  RunWithPoisonedStore(bytes, 1);
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

class RootedLogSpout : public Spout {
 public:
  RootedLogSpout(int n, std::shared_ptr<SerialSpout::Log> log)
      : n_(n), log_(std::move(log)) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->EmitRooted(static_cast<uint64_t>(next_ + 1),
                          {Value(int64_t{next_})});
    ++next_;
    return next_ < n_;
  }
  void Ack(uint64_t id) override {
    MutexLock lock(log_->mutex);
    log_->acked.insert(id);
  }
  void Fail(uint64_t id) override {
    MutexLock lock(log_->mutex);
    log_->failed.insert(id);
  }

 private:
  int n_;
  int next_ = 0;
  std::shared_ptr<SerialSpout::Log> log_;
};

// ---------------------------------------------------------------------------
// Chaos under overload (ISSUE 9 satellite): crashes while saturated
// ---------------------------------------------------------------------------

/// Unrooted kLow firehose: exists purely to saturate downstream queues so
/// the shed watermarks are genuinely engaged while the chaos plan fires.
class FirehoseSpout : public Spout {
 public:
  explicit FirehoseSpout(int n) : n_(n) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    for (int k = 0; k < 64 && next_ < n_; ++k, ++next_) {
      collector->Emit({Value(int64_t{-1})});
    }
    return next_ < n_;
  }

 private:
  int n_;
  int next_ = 0;
};

/// Slow checkpointed sink for the saturation chaos run. The counts live in
/// the snapshotted state (not an external map) so a crash rolls them back
/// atomically with the dedup ledger and the deferred acks — that atomicity
/// is what makes the critical stream effectively-once. The surviving
/// incarnation exports its counts at Cleanup.
class SaturatedSink : public Bolt, public Snapshottable {
 public:
  struct Sink {
    Mutex mutex;
    std::map<int64_t, int> counts GUARDED_BY(mutex);
  };
  explicit SaturatedSink(std::shared_ptr<Sink> sink) : sink_(std::move(sink)) {}

  void Execute(const Tuple& input, Collector*) override {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    counts_[input.Get(0).AsInt()]++;
  }
  void Cleanup() override {
    MutexLock lock(sink_->mutex);
    sink_->counts = counts_;
  }

  Status SnapshotState(std::string* out) const override {
    ByteWriter writer(out);
    writer.PutU32(static_cast<uint32_t>(counts_.size()));
    for (const auto& [value, count] : counts_) {
      writer.PutU64(static_cast<uint64_t>(value));
      writer.PutU32(static_cast<uint32_t>(count));
    }
    return Status::OK();
  }
  Status RestoreState(const std::string& bytes) override {
    ByteReader reader(bytes);
    uint32_t n = 0;
    if (!reader.GetU32(&n)) return Status::ParseError("sink snapshot short");
    std::map<int64_t, int> restored;
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t value = 0;
      uint32_t count = 0;
      if (!reader.GetU64(&value) || !reader.GetU32(&count)) {
        return Status::ParseError("sink snapshot short");
      }
      restored[static_cast<int64_t>(value)] = static_cast<int>(count);
    }
    counts_ = std::move(restored);
    return Status::OK();
  }

 private:
  std::shared_ptr<Sink> sink_;
  std::map<int64_t, int> counts_;
};

struct SaturatedRun {
  std::map<int64_t, int> critical_counts;  // sink counts, firehose excluded
  std::shared_ptr<SerialSpout::Log> log;
  dsps::MetricsRegistry::ComponentTotals sink_totals;
  uint64_t restarts = 0;
  size_t max_queue_occupancy = 0;
};

/// Rooted kHigh traffic + kLow firehose into one slow checkpointed sink,
/// with shedding on. The injector (may be null) crashes the
/// sink mid-saturation; recovery must keep the critical stream
/// effectively-once while the firehose is shed freely.
SaturatedRun RunSaturatedTopology(int critical, int firehose,
                                  FaultInjector* injector,
                                  StateStore* store) {
  auto log = std::make_shared<SerialSpout::Log>();
  auto sink = std::make_shared<SaturatedSink::Sink>();
  TopologyBuilder builder;
  builder.SetSpout("critical",
                   [critical, log] {
                     return std::make_unique<RootedLogSpout>(critical, log);
                   },
                   Fields({"v"}));
  builder.SetSpout("firehose",
                   [firehose] {
                     return std::make_unique<FirehoseSpout>(firehose);
                   },
                   Fields({"v"}));
  builder
      .SetBolt("sink",
               [sink] { return std::make_unique<SaturatedSink>(sink); },
               Fields({}))
      .GlobalGrouping("critical")
      .GlobalGrouping("firehose");
  builder.SetPriority("critical", dsps::TuplePriority::kHigh);
  builder.SetPriority("firehose", dsps::TuplePriority::kLow);
  auto topology = builder.Build();
  EXPECT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.queue_capacity = 64;
  options.emit_batch = 8;
  options.max_batch = 8;
  options.enable_acking = true;
  options.ack_timeout_micros = 100'000;
  options.max_replays = 50;
  options.replay_backoff_micros = 2'000;
  options.supervisor_interval_micros = 1'000;
  options.fault_injector = injector;
  options.enable_checkpointing = true;
  options.checkpoint_interval_micros = 10'000;
  options.state_store = store;
  options.enable_replay_dedup = true;
  options.overload.enable_load_shedding = true;
  options.overload.shed_low_watermark = 0.5;
  options.overload.shed_high_watermark = 0.9;
  LocalRuntime runtime(std::move(*topology), options);
  EXPECT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  SaturatedRun run;
  run.log = log;
  run.sink_totals = runtime.metrics()->Totals("sink");
  run.restarts = runtime.executor_restarts();
  run.max_queue_occupancy = runtime.max_queue_occupancy();
  EXPECT_EQ(runtime.pending_trees(), 0u);
  runtime.Stop();  // joins executors: the sink's Cleanup export is done
  {
    MutexLock lock(sink->mutex);
    for (const auto& [value, count] : sink->counts) {
      if (value >= 0) run.critical_counts[value] = count;
    }
  }
  return run;
}

TEST(RecoveryEndToEndTest, CrashWhileSaturatedKeepsCriticalEffectivelyOnce) {
  constexpr int kCritical = 60;
  constexpr int kFirehose = 4000;

  InMemoryStateStore clean_store;
  SaturatedRun clean =
      RunSaturatedTopology(kCritical, kFirehose, nullptr, &clean_store);
  ASSERT_EQ(clean.critical_counts.size(), static_cast<size_t>(kCritical));
  EXPECT_EQ(clean.restarts, 0u);
  // The firehose really pushed the queue past the watermark.
  EXPECT_GT(clean.sink_totals.shed_low, 0u);
  EXPECT_EQ(clean.sink_totals.shed_high, 0u);

  // Same run, but the sink dies twice mid-saturation. Recovery (checkpoint
  // restore + tree replay + ledger dedup) happens while the firehose keeps
  // the queue saturated and the shed path keeps firing.
  FaultPlan plan;
  plan.crashes.push_back({.component = "sink", .task = 0,
                          .after_executions = 30, .repeat = false});
  plan.crashes.push_back({.component = "sink", .task = 0,
                          .after_executions = 45, .repeat = false});
  FaultInjector injector(plan);
  InMemoryStateStore store;
  SaturatedRun faulty =
      RunSaturatedTopology(kCritical, kFirehose, &injector, &store);

  // The faults really fired and really healed.
  EXPECT_GE(injector.crashes_injected(), 2u);
  EXPECT_GE(faulty.restarts, 2u);
  // Saturation held across the crashes: kLow shed, kHigh never.
  EXPECT_GT(faulty.sink_totals.shed_low, 0u);
  EXPECT_EQ(faulty.sink_totals.shed_normal, 0u);
  EXPECT_EQ(faulty.sink_totals.shed_high, 0u);
  // Blocking backpressure held through kill-and-relaunch: at most one
  // flush block past capacity.
  EXPECT_LT(faulty.max_queue_occupancy, 64u + 8u);

  // The acceptance bar: the high-priority stream matches the fault-free
  // run value for value — every critical tuple delivered exactly once,
  // none shed, none lost, none duplicated.
  EXPECT_EQ(faulty.critical_counts, clean.critical_counts);
  for (const auto& [value, count] : faulty.critical_counts) {
    EXPECT_EQ(count, 1) << "critical value " << value
                        << " not effectively-once under saturation";
  }
  {
    MutexLock lock(faulty.log->mutex);
    EXPECT_EQ(faulty.log->acked.size(), static_cast<size_t>(kCritical));
    EXPECT_TRUE(faulty.log->failed.empty());
  }
}

}  // namespace
}  // namespace reliability
}  // namespace insight
