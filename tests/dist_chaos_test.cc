// Chaos acceptance run (ISSUE 6 satellite): a 3-worker distributed
// Listing-1 topology with one worker SIGKILLed mid-stream must produce the
// exact detection multiset of a fault-free single-process run — the
// effectively-once guarantee (checkpointed state + egress retransmit +
// dedup ledgers) has to survive the network hop and a process death.
//
// Like dist_test, this binary is its own cluster's worker binary: main()
// routes --insight-* invocations to the worker role before gtest runs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cep/engine.h"
#include "common/bytes.h"
#include "dist/options.h"
#include "dist/runtime.h"
#include "dsps/local_runtime.h"
#include "dsps/topology.h"
#include "observability/export.h"
#include "reliability/state_store.h"

namespace insight {
namespace dist {
namespace {

using dsps::Bolt;
using dsps::Collector;
using dsps::Fields;
using dsps::Snapshottable;
using dsps::Spout;
using dsps::TaskContext;
using dsps::TopologyBuilder;
using dsps::Tuple;
using dsps::Value;

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

/// Serial rooted spout: the next message goes out only after the previous
/// one resolved, giving the run a total order over root tuples (see
/// recovery_test.cc). Distributed, "resolved" means the injected egress
/// bolt's checkpoint made the message durable on the sending worker.
class SerialBusSpout : public Spout {
 public:
  explicit SerialBusSpout(int n) : n_(n) {}

  bool NextTuple(Collector* collector) override {
    if (waiting_) return true;
    if (next_ >= n_) return false;
    int i = next_;
    collector->EmitRooted(static_cast<uint64_t>(i + 1),
                          {Value(int64_t{i + 1}), Value(int64_t{i % 4 + 1}),
                           Value(40.0 + 3.0 * static_cast<double>(i))});
    ++next_;
    waiting_ = true;
    return true;
  }
  void Ack(uint64_t) override { waiting_ = false; }
  void Fail(uint64_t) override { waiting_ = false; }

 private:
  int n_;
  int next_ = 0;
  bool waiting_ = false;
};

/// One Listing-1 engine per task (the EsperBolt pattern), Snapshottable by
/// forwarding to the engine. Optionally drops a progress marker file after
/// its 5th execution so the chaos test can time its kill mid-stream.
class Listing1Bolt : public Bolt, public Snapshottable {
 public:
  explicit Listing1Bolt(std::string marker_path)
      : marker_path_(std::move(marker_path)) {}

  void Prepare(const TaskContext&) override {
    engine_ = std::make_unique<cep::Engine>();
    Status status =
        engine_->RegisterEventType("bus", {{"timestamp", cep::ValueType::kInt},
                                           {"location", cep::ValueType::kInt},
                                           {"hour", cep::ValueType::kInt},
                                           {"day", cep::ValueType::kString},
                                           {"delay", cep::ValueType::kDouble}});
    if (status.ok()) {
      status = engine_->RegisterEventType(
          "thresholdLocation", {{"location", cep::ValueType::kInt},
                                {"hour", cep::ValueType::kInt},
                                {"day", cep::ValueType::kString},
                                {"delay", cep::ValueType::kDouble}});
    }
    auto statement = engine_->AddStatement(kListing1, "generic");
    if (!status.ok() || !statement.ok()) {
      std::fprintf(stderr, "listing1 setup failed\n");
      std::abort();
    }
    (*statement)->AddListener([this](const cep::MatchResult& m) {
      pending_.push_back({*m.Get("bd.location"), *m.Get("bd.timestamp")});
    });
    // Preload the threshold stream before any restore (Section 4.3.1); a
    // restored snapshot re-creates these from its keepall window.
    for (int64_t location = 1; location <= 4; ++location) {
      engine_->SendEvent(engine_->NewEvent("thresholdLocation")
                             .Set("location", location)
                             .Set("hour", int64_t{8})
                             .Set("day", std::string("weekday"))
                             .Set("delay", 100.0)
                             .Build());
    }
  }

  void Execute(const Tuple& input, Collector* collector) override {
    int64_t ts = input.Get(0).AsInt();
    engine_->SendEvent(engine_->NewEvent("bus")
                           .Set("timestamp", ts)
                           .Set("location", input.Get(1).AsInt())
                           .Set("hour", int64_t{8})
                           .Set("day", std::string("weekday"))
                           .Set("delay", input.Get(2).AsDouble())
                           .SetTimestamp(ts)
                           .Build());
    for (auto& detection : pending_) collector->Emit(std::move(detection));
    pending_.clear();
    if (++executed_ == 5 && !marker_path_.empty()) {
      std::ofstream(marker_path_, std::ios::trunc) << "mid-stream\n";
    }
  }

  Status SnapshotState(std::string* out) const override {
    return engine_->Snapshot(out);
  }
  Status RestoreState(const std::string& bytes) override {
    return engine_->Restore(bytes);
  }

 private:
  std::string marker_path_;
  std::unique_ptr<cep::Engine> engine_;
  std::vector<std::vector<Value>> pending_;
  int executed_ = 0;
};

/// Terminal detection recorder: Snapshottable with real state (the counts
/// survive a restart of its worker) and dumps "location timestamp count"
/// lines at Cleanup so the supervising test can read them cross-process.
class DetectionFileSink : public Bolt, public Snapshottable {
 public:
  explicit DetectionFileSink(std::string path) : path_(std::move(path)) {}

  void Execute(const Tuple& input, Collector*) override {
    counts_[{input.Get(0).AsInt(), input.Get(1).AsInt()}]++;
  }
  void Cleanup() override {
    std::ofstream out(path_, std::ios::trunc);
    for (const auto& [key, count] : counts_) {
      out << key.first << " " << key.second << " " << count << "\n";
    }
  }

  Status SnapshotState(std::string* out) const override {
    ByteWriter writer(out);
    writer.PutU32(static_cast<uint32_t>(counts_.size()));
    for (const auto& [key, count] : counts_) {
      writer.PutU64(static_cast<uint64_t>(key.first));
      writer.PutU64(static_cast<uint64_t>(key.second));
      writer.PutU32(static_cast<uint32_t>(count));
    }
    return Status::OK();
  }
  Status RestoreState(const std::string& bytes) override {
    ByteReader reader(bytes);
    uint32_t n = 0;
    if (!reader.GetU32(&n)) return Status::ParseError("sink snapshot truncated");
    std::map<std::pair<int64_t, int64_t>, int> restored;
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t location = 0;
      uint64_t timestamp = 0;
      uint32_t count = 0;
      if (!reader.GetU64(&location) || !reader.GetU64(&timestamp) ||
          !reader.GetU32(&count)) {
        return Status::ParseError("sink snapshot truncated");
      }
      restored[{static_cast<int64_t>(location),
                static_cast<int64_t>(timestamp)}] = static_cast<int>(count);
    }
    counts_ = std::move(restored);
    return Status::OK();
  }

 private:
  std::string path_;
  std::map<std::pair<int64_t, int64_t>, int> counts_;
};

constexpr int kBusMessages = 60;

/// Unrooted kLow firehose for the overload chaos run: saturates the queues
/// of the worker hosting the stateful tasks while it gets SIGKILLed.
class NoiseSpout : public Spout {
 public:
  explicit NoiseSpout(int n) : n_(n) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    for (int k = 0; k < 64 && next_ < n_; ++k, ++next_) {
      collector->Emit({Value(int64_t{next_})});
    }
    return next_ < n_;
  }

 private:
  int n_;
  int next_ = 0;
};

/// Slow terminal for the noise stream (placed with the detect tasks, so the
/// kill target's queues really are saturated when the SIGKILL lands).
class NoiseSink : public Bolt {
 public:
  void Execute(const Tuple&, Collector*) override {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
};

struct Listing1App {
  dsps::Topology topology;
  DistOptions options;
};

dsps::Topology BuildListing1Topology(const std::string& out_dir) {
  std::string marker = out_dir + "/progress-marker";
  std::string detections = out_dir + "/detections.txt";
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [] { return std::make_unique<SerialBusSpout>(kBusMessages); },
                   Fields({"timestamp", "location", "delay"}));
  builder
      .SetBolt("detect",
               [marker] { return std::make_unique<Listing1Bolt>(marker); },
               Fields({"location", "timestamp"}), 2)
      .FieldsGrouping("source", {"location"});
  builder
      .SetBolt("sink",
               [detections] {
                 return std::make_unique<DetectionFileSink>(detections);
               },
               Fields({}))
      .GlobalGrouping("detect");
  auto topology = builder.Build();
  if (!topology.ok()) {
    std::fprintf(stderr, "topology build failed: %s\n",
                 topology.status().ToString().c_str());
    std::abort();
  }
  return std::move(*topology);
}

Listing1App BuildListing1App(const std::string& out_dir,
                             const std::string& ckpt_dir) {
  DistOptions options;
  options.num_workers = 3;
  options.placement.worker_of = {{"source", 0}, {"detect", 1}, {"sink", 2}};
  options.runtime.enable_acking = true;
  options.runtime.ack_timeout_micros = 500'000;
  options.runtime.max_replays = 20;
  options.runtime.replay_backoff_micros = 2'000;
  options.runtime.supervisor_interval_micros = 1'000;
  options.runtime.enable_checkpointing = true;
  options.runtime.checkpoint_interval_micros = 10'000;
  options.runtime.enable_replay_dedup = true;
  options.checkpoint_dir = ckpt_dir;
  options.metrics_interval_micros = 100'000;
  options.worker_args = {"--insight-app=listing1", "--insight-out=" + out_dir,
                         "--insight-ckpt=" + ckpt_dir};
  return {BuildListing1Topology(out_dir), std::move(options)};
}

/// Overload-chaos variant (ISSUE 9 satellite): the same Listing-1 pipeline
/// tagged kHigh, plus a kLow noise firehose terminating in a slow sink on
/// the detect worker, running under priority shedding. The
/// noise keeps worker 1 saturated; the SIGKILL lands mid-saturation; the
/// high-priority detections must still match the fault-free run exactly.
dsps::Topology BuildOverloadTopology(const std::string& out_dir) {
  std::string marker = out_dir + "/progress-marker";
  std::string detections = out_dir + "/detections.txt";
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [] { return std::make_unique<SerialBusSpout>(kBusMessages); },
                   Fields({"timestamp", "location", "delay"}));
  builder.SetSpout("noise", [] { return std::make_unique<NoiseSpout>(4000); },
                   Fields({"v"}));
  builder
      .SetBolt("detect",
               [marker] { return std::make_unique<Listing1Bolt>(marker); },
               Fields({"location", "timestamp"}), 2)
      .FieldsGrouping("source", {"location"});
  builder.SetBolt("noise_sink", [] { return std::make_unique<NoiseSink>(); },
                  Fields({}))
      .ShuffleGrouping("noise");
  builder
      .SetBolt("sink",
               [detections] {
                 return std::make_unique<DetectionFileSink>(detections);
               },
               Fields({}))
      .GlobalGrouping("detect");
  builder.SetPriority("source", dsps::TuplePriority::kHigh);
  builder.SetPriority("detect", dsps::TuplePriority::kHigh);
  builder.SetPriority("noise", dsps::TuplePriority::kLow);
  auto topology = builder.Build();
  if (!topology.ok()) {
    std::fprintf(stderr, "overload topology build failed: %s\n",
                 topology.status().ToString().c_str());
    std::abort();
  }
  return std::move(*topology);
}

Listing1App BuildOverloadApp(const std::string& out_dir,
                             const std::string& ckpt_dir) {
  Listing1App app = BuildListing1App(out_dir, ckpt_dir);
  app.topology = BuildOverloadTopology(out_dir);
  app.options.placement.worker_of = {{"source", 0},
                                     {"noise", 0},
                                     {"detect", 1},
                                     {"noise_sink", 1},
                                     {"sink", 2}};
  app.options.runtime.queue_capacity = 64;
  app.options.runtime.overload.enable_load_shedding = true;
  app.options.runtime.overload.shed_low_watermark = 0.5;
  app.options.runtime.overload.shed_high_watermark = 0.9;
  app.options.worker_args = {"--insight-app=listing1-overload",
                             "--insight-out=" + out_dir,
                             "--insight-ckpt=" + ckpt_dir};
  return app;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/insight-chaos-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? std::string(dir) : std::string("/tmp");
}

std::map<std::pair<int64_t, int64_t>, int> ReadDetections(
    const std::string& path) {
  std::map<std::pair<int64_t, int64_t>, int> detections;
  std::ifstream in(path);
  int64_t location;
  int64_t timestamp;
  int count;
  while (in >> location >> timestamp >> count) {
    detections[{location, timestamp}] = count;
  }
  return detections;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// The reference: the identical topology through a single-process
/// LocalRuntime with the same reliability options, fault-free.
std::map<std::pair<int64_t, int64_t>, int> RunLocalReference(
    const std::string& out_dir) {
  dsps::Topology topology = BuildListing1Topology(out_dir);
  reliability::InMemoryStateStore store;
  Listing1App shape = BuildListing1App(out_dir, "");
  dsps::LocalRuntime::Options options = shape.options.runtime;
  options.enable_checkpointing = true;
  options.state_store = &store;
  dsps::LocalRuntime runtime(std::move(topology), options);
  EXPECT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  EXPECT_EQ(runtime.pending_trees(), 0u);
  return ReadDetections(out_dir + "/detections.txt");
}

TEST(DistributedChaosTest, KilledWorkerRunMatchesFaultFreeLocalRun) {
  std::string local_dir = MakeTempDir();
  std::map<std::pair<int64_t, int64_t>, int> reference =
      RunLocalReference(local_dir);
  ASSERT_FALSE(reference.empty());

  std::string out_dir = MakeTempDir();
  std::string ckpt_dir = MakeTempDir();
  Listing1App app = BuildListing1App(out_dir, ckpt_dir);
  DistributedRuntime runtime(std::move(app.topology), app.options);
  ASSERT_TRUE(runtime.Start().ok());

  // Kill the worker hosting the stateful detect tasks once it is provably
  // mid-stream (its 5th execution dropped the marker, with 55 messages
  // still behind it in the serial source).
  std::string marker = out_dir + "/progress-marker";
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!FileExists(marker) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(FileExists(marker)) << "cluster made no progress";
  runtime.KillWorker(1);

  ASSERT_EQ(runtime.WaitForCompletion(300'000'000), 0);
  EXPECT_GE(runtime.worker_restarts(), 1u);

  // The acceptance bar (ISSUE 6): Listing-1 averages of the distributed,
  // worker-killed run must equal the fault-free single-process run, with
  // no detection counted twice.
  std::map<std::pair<int64_t, int64_t>, int> detections =
      ReadDetections(out_dir + "/detections.txt");
  EXPECT_EQ(detections, reference);
  for (const auto& [detection, count] : detections) {
    EXPECT_EQ(count, 1) << "duplicate detection for location "
                        << detection.first << " at t=" << detection.second;
  }
  for (const auto& [detection, count] : reference) {
    EXPECT_EQ(count, 1) << "reference double-counted location "
                        << detection.first << " at t=" << detection.second;
  }
}

// Kill-9-while-saturated (ISSUE 9 satellite): the detect worker also hosts
// the slow terminal of a kLow firehose, so its ingress queues are saturated
// and actively shedding when the SIGKILL lands. The restarted cluster must
// still deliver the exact high-priority detection multiset of a fault-free
// plain run — overload protection may drop noise, never critical results.
TEST(DistributedChaosTest, KilledWorkerUnderOverloadMatchesFaultFreeRun) {
  std::string local_dir = MakeTempDir();
  std::map<std::pair<int64_t, int64_t>, int> reference =
      RunLocalReference(local_dir);
  ASSERT_FALSE(reference.empty());

  std::string out_dir = MakeTempDir();
  std::string ckpt_dir = MakeTempDir();
  Listing1App app = BuildOverloadApp(out_dir, ckpt_dir);
  DistributedRuntime runtime(std::move(app.topology), app.options);
  ASSERT_TRUE(runtime.Start().ok());

  std::string marker = out_dir + "/progress-marker";
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!FileExists(marker) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(FileExists(marker)) << "cluster made no progress";
  runtime.KillWorker(1);

  ASSERT_EQ(runtime.WaitForCompletion(300'000'000), 0);
  EXPECT_GE(runtime.worker_restarts(), 1u);

  std::map<std::pair<int64_t, int64_t>, int> detections =
      ReadDetections(out_dir + "/detections.txt");
  EXPECT_EQ(detections, reference);
  for (const auto& [detection, count] : detections) {
    EXPECT_EQ(count, 1) << "duplicate detection for location "
                        << detection.first << " at t=" << detection.second;
  }

  // The shed counters prove the run really was saturated: noise tuples were
  // dropped, critical tuples never were.
  observability::MetricsSnapshot cluster = runtime.ClusterMetrics();
  double shed_low = 0;
  double shed_high = 0;
  for (const auto& family : cluster.counters) {
    if (family.name != "insight_tuples_shed_total") continue;
    for (const auto& sample : family.samples) {
      if (sample.labels.find("priority=\"low\"") != std::string::npos) {
        shed_low += sample.value;
      } else if (sample.labels.find("priority=\"high\"") != std::string::npos) {
        shed_high += sample.value;
      }
    }
  }
  EXPECT_GT(shed_low, 0) << "noise never saturated the detect worker";
  EXPECT_EQ(shed_high, 0) << "a critical tuple was shed";
}

}  // namespace

namespace testapp {

std::string FlagValue(int argc, char** argv, const std::string& prefix) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

int WorkerMain(int argc, char** argv, const WorkerSpec& spec) {
  std::string app = FlagValue(argc, argv, "--insight-app=");
  std::string out_dir = FlagValue(argc, argv, "--insight-out=");
  std::string ckpt_dir = FlagValue(argc, argv, "--insight-ckpt=");
  if ((app != "listing1" && app != "listing1-overload") || out_dir.empty() ||
      ckpt_dir.empty()) {
    std::fprintf(stderr, "unknown worker app '%s'\n", app.c_str());
    return 2;
  }
  Listing1App built = app == "listing1-overload"
                          ? BuildOverloadApp(out_dir, ckpt_dir)
                          : BuildListing1App(out_dir, ckpt_dir);
  return RunWorker(spec, std::move(built.topology), built.options);
}

}  // namespace testapp
}  // namespace dist
}  // namespace insight

int main(int argc, char** argv) {
  insight::dist::WorkerSpec spec;
  if (insight::dist::ParseWorkerSpec(argc, argv, &spec)) {
    return insight::dist::testapp::WorkerMain(argc, argv, spec);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
