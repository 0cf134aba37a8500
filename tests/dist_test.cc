// Distributed runtime tests: placement planning, control/data-plane proto
// round-trips, egress retransmit buffer and ingress duplicate suppression,
// and a 2-worker end-to-end run on loopback.
//
// This binary is the symmetric binary of its own clusters: the supervisor
// branch (the gtest process) re-execs it with --insight-* flags, and main()
// routes those invocations to the worker role before gtest ever runs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dist/channel.h"
#include "dist/options.h"
#include "dist/placement.h"
#include "dist/proto.h"
#include "dist/runtime.h"
#include "dsps/local_runtime.h"
#include "dsps/topology.h"
#include "net/wire.h"

namespace insight {
namespace dist {
namespace {

using dsps::Bolt;
using dsps::Collector;
using dsps::Fields;
using dsps::Spout;
using dsps::TopologyBuilder;
using dsps::Tuple;
using dsps::Value;

dsps::Topology ThreeStageTopology() {
  TopologyBuilder builder;
  builder.SetSpout("source", [] { return nullptr; }, Fields({"v"}));
  builder.SetBolt("detect", [] { return nullptr; }, Fields({"w"}), 2)
      .FieldsGrouping("source", {"v"});
  builder.SetBolt("sink", [] { return nullptr; }, Fields({}))
      .GlobalGrouping("detect");
  auto topology = builder.Build();
  EXPECT_TRUE(topology.ok()) << topology.status().ToString();
  return std::move(*topology);
}

// ---------------------------------------------------------------------------
// Placement

TEST(PlacementTest, RoundRobinFollowsDeclarationOrder) {
  dsps::Topology topology = ThreeStageTopology();
  Placement placement = RoundRobinPlacement(topology, 2);
  EXPECT_EQ(placement.worker_of.at("source"), 0u);
  EXPECT_EQ(placement.worker_of.at("detect"), 1u);
  EXPECT_EQ(placement.worker_of.at("sink"), 0u);
  ASSERT_TRUE(ValidatePlacement(topology, placement, 2).ok());
}

TEST(PlacementTest, ResolveKeepsExplicitEntries) {
  dsps::Topology topology = ThreeStageTopology();
  Placement partial;
  partial.worker_of["detect"] = 2;
  Placement resolved = ResolvePlacement(topology, partial, 3);
  EXPECT_EQ(resolved.worker_of.at("detect"), 2u);
  EXPECT_EQ(resolved.worker_of.size(), 3u);
  ASSERT_TRUE(ValidatePlacement(topology, resolved, 3).ok());
}

TEST(PlacementTest, ValidateRejectsBadPlacements) {
  dsps::Topology topology = ThreeStageTopology();
  Placement good = RoundRobinPlacement(topology, 2);

  Placement unknown = good;
  unknown.worker_of["no-such-component"] = 0;
  EXPECT_FALSE(ValidatePlacement(topology, unknown, 2).ok());

  Placement out_of_range = good;
  out_of_range.worker_of["sink"] = 7;
  EXPECT_FALSE(ValidatePlacement(topology, out_of_range, 2).ok());

  Placement incomplete = good;
  incomplete.worker_of.erase("sink");
  EXPECT_FALSE(ValidatePlacement(topology, incomplete, 2).ok());

  EXPECT_FALSE(ValidatePlacement(topology, good, 0).ok());
}

TEST(PlacementTest, ValidateRejectsCrossWorkerDirectGrouping) {
  TopologyBuilder builder;
  builder.SetSpout("source", [] { return nullptr; }, Fields({"v"}));
  builder.SetBolt("direct", [] { return nullptr; }, Fields({}), 2)
      .DirectGrouping("source");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  Placement split;
  split.worker_of["source"] = 0;
  split.worker_of["direct"] = 1;
  EXPECT_FALSE(ValidatePlacement(*topology, split, 2).ok());
  // Same worker is fine: EmitDirect stays process-local.
  split.worker_of["direct"] = 0;
  EXPECT_TRUE(ValidatePlacement(*topology, split, 2).ok());
}

TEST(PlacementTest, ReservedNames) {
  EXPECT_EQ(IngressName("detect"), "__in_detect");
  EXPECT_EQ(EgressName("source"), "__out_source");
  EXPECT_TRUE(IsReservedComponentName("__in_x"));
  EXPECT_TRUE(IsReservedComponentName("__out_x"));
  EXPECT_FALSE(IsReservedComponentName("detect"));
}

TEST(PlacementTest, PlanForWorkerComputesEdges) {
  dsps::Topology topology = ThreeStageTopology();
  Placement placement = RoundRobinPlacement(topology, 2);  // src+sink@0, detect@1

  WorkerPlan plan0 = PlanForWorker(topology, placement, 0);
  EXPECT_EQ(plan0.owned, (std::vector<std::string>{"source", "sink"}));
  ASSERT_EQ(plan0.remote_dests.count("source"), 1u);
  EXPECT_EQ(plan0.remote_dests.at("source"), (std::vector<uint32_t>{1}));
  ASSERT_EQ(plan0.ingress_sources.count("detect"), 1u);
  EXPECT_EQ(plan0.ingress_sources.at("detect"), 1u);

  WorkerPlan plan1 = PlanForWorker(topology, placement, 1);
  EXPECT_EQ(plan1.owned, (std::vector<std::string>{"detect"}));
  EXPECT_EQ(plan1.remote_dests.at("detect"), (std::vector<uint32_t>{0}));
  EXPECT_EQ(plan1.ingress_sources.at("source"), 0u);
}

// ---------------------------------------------------------------------------
// Wire-id chaining

TEST(WireIdTest, ChainedIdsAreStableAndDistinct) {
  uint64_t a1 = ChainWireId(42, 1);
  uint64_t a2 = ChainWireId(42, 2);
  uint64_t b1 = ChainWireId(43, 1);
  // Replay-stability: the same (input, ordinal) always maps to the same id.
  EXPECT_EQ(a1, ChainWireId(42, 1));
  EXPECT_NE(a1, a2);
  EXPECT_NE(a1, b1);
  EXPECT_NE(a1, 0u);
}

// ---------------------------------------------------------------------------
// Control/data-plane proto

TEST(ProtoTest, WorkerHelloRoundTrip) {
  WorkerHello msg{3, 7, 45123};
  std::string bytes;
  EncodeWorkerHello(msg, &bytes);
  WorkerHello out;
  ASSERT_TRUE(DecodeWorkerHello(bytes, &out).ok());
  EXPECT_EQ(out.worker_id, 3u);
  EXPECT_EQ(out.incarnation, 7u);
  EXPECT_EQ(out.data_port, 45123);
  EXPECT_FALSE(DecodeWorkerHello(bytes.substr(0, 3), &out).ok());
}

TEST(ProtoTest, PeerTableRoundTrip) {
  PeerTable msg;
  msg.peers.push_back({0, 1, 1000});
  msg.peers.push_back({1, 4, 2000});
  std::string bytes;
  EncodePeerTable(msg, &bytes);
  PeerTable out;
  ASSERT_TRUE(DecodePeerTable(bytes, &out).ok());
  ASSERT_EQ(out.peers.size(), 2u);
  EXPECT_EQ(out.peers[1].worker_id, 1u);
  EXPECT_EQ(out.peers[1].incarnation, 4u);
  EXPECT_EQ(out.peers[1].data_port, 2000);
  EXPECT_FALSE(DecodePeerTable(bytes.substr(0, bytes.size() - 1), &out).ok());
}

TEST(ProtoTest, WorkerStatusRoundTrip) {
  WorkerStatus msg{2, 5, true, 11, -3, 4, 9, 6};
  std::string bytes;
  EncodeWorkerStatus(msg, &bytes);
  WorkerStatus out;
  ASSERT_TRUE(DecodeWorkerStatus(bytes, &out).ok());
  EXPECT_EQ(out.worker_id, 2u);
  EXPECT_TRUE(out.user_spouts_done);
  EXPECT_EQ(out.pending_trees, 11u);
  EXPECT_EQ(out.in_flight, -3);
  EXPECT_EQ(out.egress_unacked_frames, 4u);
  EXPECT_EQ(out.ingress_queued, 9u);
  EXPECT_EQ(out.ingress_inflight, 6u);
}

TEST(ProtoTest, SmallMessagesRoundTrip) {
  std::string bytes;
  EncodeShutdownRequest({true}, &bytes);
  ShutdownRequest shutdown;
  ASSERT_TRUE(DecodeShutdownRequest(bytes, &shutdown).ok());
  EXPECT_TRUE(shutdown.abort);

  bytes.clear();
  EncodeFinishedNote({5, 9}, &bytes);
  FinishedNote finished;
  ASSERT_TRUE(DecodeFinishedNote(bytes, &finished).ok());
  EXPECT_EQ(finished.worker_id, 5u);
  EXPECT_EQ(finished.incarnation, 9u);

  bytes.clear();
  EncodeChannelHello({8, 2}, &bytes);
  ChannelHello hello;
  ASSERT_TRUE(DecodeChannelHello(bytes, &hello).ok());
  EXPECT_EQ(hello.worker_id, 8u);
  EXPECT_EQ(hello.incarnation, 2u);
  EXPECT_FALSE(DecodeChannelHello("x", &hello).ok());
}

TEST(ProtoTest, HopAckRoundTrip) {
  HopAck msg;
  msg.stream = "detect";
  msg.sender_task = 3;
  msg.seqs = {1, 5, 1'000'000'000'000ull};
  std::string bytes;
  EncodeHopAck(msg, &bytes);
  HopAck out;
  ASSERT_TRUE(DecodeHopAck(bytes, &out).ok());
  EXPECT_EQ(out.stream, "detect");
  EXPECT_EQ(out.sender_task, 3u);
  EXPECT_EQ(out.seqs, msg.seqs);
}

TEST(ProtoTest, MetricsReportRoundTrip) {
  MetricsReport msg;
  msg.worker_id = 1;
  msg.incarnation = 2;
  observability::CounterFamily family;
  family.name = "insight_tuples_executed_total";
  family.help = "tuples executed";
  family.samples.push_back({"component=\"detect\"", 42.0});
  msg.snapshot.counters.push_back(family);
  dsps::MetricsRegistry::WindowReport window;
  window.window_start = 123;
  window.window_length_micros = 1'000'000;
  window.component = "detect";
  window.executed = 10;
  window.avg_latency_micros = 2.5;
  window.p95_micros = 4.0;
  msg.windows.push_back(window);

  std::string bytes;
  EncodeMetricsReport(msg, &bytes);
  MetricsReport out;
  ASSERT_TRUE(DecodeMetricsReport(bytes, &out).ok());
  ASSERT_EQ(out.snapshot.counters.size(), 1u);
  EXPECT_EQ(out.snapshot.counters[0].name, "insight_tuples_executed_total");
  ASSERT_EQ(out.snapshot.counters[0].samples.size(), 1u);
  EXPECT_EQ(out.snapshot.counters[0].samples[0].labels,
            "component=\"detect\"");
  EXPECT_EQ(out.snapshot.counters[0].samples[0].value, 42.0);
  ASSERT_EQ(out.windows.size(), 1u);
  EXPECT_EQ(out.windows[0].component, "detect");
  EXPECT_EQ(out.windows[0].executed, 10u);
  EXPECT_EQ(out.windows[0].avg_latency_micros, 2.5);
  EXPECT_FALSE(DecodeMetricsReport(bytes.substr(0, bytes.size() / 2), &out).ok());
}

// ---------------------------------------------------------------------------
// EgressBuffer

net::ValuePayload Payload(int64_t v) {
  return std::make_shared<const std::vector<Value>>(
      std::vector<Value>{Value(v)});
}

TEST(EgressBufferTest, BatchesAcksRequeuesAndSnapshots) {
  EgressOptions options;
  options.batch_tuples = 2;
  options.flush_interval_micros = 0;  // ticks flush any aged staging
  EgressBuffer buffer("detect", 0, {1}, options);

  buffer.Add(Payload(1), 101, 0);
  buffer.Add(Payload(2), 102, 0);  // cuts frame seq=1
  buffer.Add(Payload(3), 103, 0);  // staged

  // Staging ages against the monotonic clock; a "now" past it flushes.
  MicrosT later = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count() +
                  1'000'000;
  std::vector<std::string> sendable = buffer.TakeSendable(1, later);
  ASSERT_EQ(sendable.size(), 2u);  // full batch + tick-flushed remainder
  net::TupleBatch first;
  ASSERT_TRUE(net::DecodeTupleBatch(sendable[0], &first).ok());
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.stream, "detect");
  ASSERT_EQ(first.tuples.size(), 2u);
  EXPECT_EQ(first.tuples[0].wire_id, 101u);
  net::TupleBatch second;
  ASSERT_TRUE(net::DecodeTupleBatch(sendable[1], &second).ok());
  EXPECT_EQ(second.seq, 2u);
  ASSERT_EQ(second.tuples.size(), 1u);

  // Already marked sent: nothing further to send, both still unacked.
  EXPECT_TRUE(buffer.TakeSendable(1, later).empty());
  EXPECT_EQ(buffer.UnackedFrames(), 2u);

  buffer.HandleAck(1, {1});
  EXPECT_EQ(buffer.UnackedFrames(), 1u);

  // Disconnect requeues the in-flight frame (1 tuple) for resend.
  EXPECT_EQ(buffer.MarkDisconnected(1), 1u);
  std::vector<std::string> resent = buffer.TakeSendable(1, later);
  ASSERT_EQ(resent.size(), 1u);
  EXPECT_EQ(resent[0], sendable[1]);  // byte-identical retransmit

  // Snapshot -> restore into a fresh buffer: the unacked frame survives and
  // is marked unsent, so the next tick retransmits it.
  std::string snapshot;
  ASSERT_TRUE(buffer.Snapshot(&snapshot).ok());
  EgressBuffer restored("detect", 0, {1}, options);
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  EXPECT_EQ(restored.UnackedFrames(), 1u);
  std::vector<std::string> after = restored.TakeSendable(1, later);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], sendable[1]);

  // Corrupt snapshots are rejected cleanly.
  EgressBuffer victim("detect", 0, {1}, options);
  EXPECT_FALSE(victim.Restore("garbage").ok());
  EXPECT_FALSE(victim.Restore(snapshot.substr(0, snapshot.size() / 2)).ok());
}

// ---------------------------------------------------------------------------
// IngressQueue

net::TupleBatch MakeBatch(uint64_t seq, std::vector<uint64_t> wire_ids) {
  net::TupleBatchBuilder builder("source", 0);
  for (uint64_t id : wire_ids) {
    builder.Add(Payload(static_cast<int64_t>(id)), id, 0);
  }
  return builder.Take(seq);
}

struct AckLog {
  std::vector<std::pair<uint32_t, std::vector<uint64_t>>> acks;
  void Attach(IngressQueue* queue) {
    queue->SetAckSink([this](uint32_t task, std::vector<uint64_t> seqs) {
      acks.push_back({task, std::move(seqs)});
    });
  }
  size_t TotalSeqs() const {
    size_t n = 0;
    for (const auto& [task, seqs] : acks) n += seqs.size();
    return n;
  }
};

TEST(IngressQueueTest, AcceptsResolvesAndSuppressesDuplicates) {
  IngressQueue queue("source");
  AckLog log;
  log.Attach(&queue);

  ASSERT_EQ(queue.OfferFrame(1, MakeBatch(1, {11, 12})),
            IngressQueue::Disposition::kAccepted);
  EXPECT_EQ(queue.QueuedTuples(), 2u);

  // Re-offering the same frame while in progress: dropped, no premature ack.
  ASSERT_EQ(queue.OfferFrame(1, MakeBatch(1, {11, 12})),
            IngressQueue::Disposition::kDuplicate);
  EXPECT_EQ(queue.QueuedTuples(), 2u);
  EXPECT_TRUE(log.acks.empty());

  std::vector<IngressQueue::PendingTuple> drained;
  ASSERT_EQ(queue.Drain(10, &drained), 2u);
  queue.ResolveNow(drained[0]);
  EXPECT_TRUE(log.acks.empty());  // frame not yet fully resolved
  queue.ResolveNow(drained[1]);
  ASSERT_EQ(log.acks.size(), 1u);
  EXPECT_EQ(log.acks[0].second, (std::vector<uint64_t>{1}));

  // A retransmit of the completed frame re-acks without re-queuing.
  ASSERT_EQ(queue.OfferFrame(1, MakeBatch(1, {11, 12})),
            IngressQueue::Disposition::kDuplicate);
  EXPECT_EQ(queue.QueuedTuples(), 0u);
  EXPECT_EQ(log.acks.size(), 2u);

  // Frames from an older incarnation are stale and never acked.
  EXPECT_EQ(queue.OfferFrame(0, MakeBatch(2, {13})),
            IngressQueue::Disposition::kStale);
  EXPECT_EQ(log.acks.size(), 2u);

  // A new incarnation resets the per-sender channels: seq 1 is fresh again.
  ASSERT_EQ(queue.OfferFrame(2, MakeBatch(1, {11, 12})),
            IngressQueue::Disposition::kAccepted);
  EXPECT_EQ(queue.QueuedTuples(), 2u);
}

TEST(IngressQueueTest, InflightDuplicateAttachesInsteadOfReemitting) {
  IngressQueue queue("source");
  AckLog log;
  log.Attach(&queue);

  ASSERT_EQ(queue.OfferFrame(1, MakeBatch(1, {77})),
            IngressQueue::Disposition::kAccepted);
  std::vector<IngressQueue::PendingTuple> drained;
  ASSERT_EQ(queue.Drain(10, &drained), 1u);
  EXPECT_TRUE(queue.TrackInflight(drained[0]));
  EXPECT_EQ(queue.InflightTuples(), 1u);

  // The sender restarts (incarnation 2) and retransmits the same wire id
  // under a fresh sequence. The tuple must not be emitted a second time:
  // its frame ref attaches to the in-flight entry.
  ASSERT_EQ(queue.OfferFrame(2, MakeBatch(1, {77})),
            IngressQueue::Disposition::kAccepted);
  std::vector<IngressQueue::PendingTuple> again;
  ASSERT_EQ(queue.Drain(10, &again), 1u);
  EXPECT_FALSE(queue.TrackInflight(again[0]));
  EXPECT_TRUE(log.acks.empty());

  // One local resolution resolves both carrying frames; only the live
  // incarnation's frame is acked (the dead sender's connection is gone, and
  // its restart resent the tuple under the new sequence anyway).
  queue.ResolveInflight(77);
  EXPECT_EQ(log.TotalSeqs(), 1u);
  EXPECT_EQ(queue.InflightTuples(), 0u);

  queue.MarkDone();
  EXPECT_TRUE(queue.Exhausted());
}

// ---------------------------------------------------------------------------
// End-to-end: 2 workers on loopback
// ---------------------------------------------------------------------------

/// Emits 0..n-1 as rooted tuples.
class NumbersSpout : public Spout {
 public:
  explicit NumbersSpout(int n) : n_(n) {}
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

class TripleBolt : public Bolt {
 public:
  void Execute(const Tuple& input, Collector* collector) override {
    collector->Emit({Value(input.Get(0).AsInt() * 3 + 1)});
  }
};

/// Counts every value it sees; dumps "value count" lines at Cleanup (the
/// only way results escape a worker process).
class FileCountSink : public Bolt {
 public:
  explicit FileCountSink(std::string path) : path_(std::move(path)) {}
  void Execute(const Tuple& input, Collector*) override {
    counts_[input.Get(0).AsInt()]++;
  }
  void Cleanup() override {
    std::ofstream out(path_, std::ios::trunc);
    for (const auto& [value, count] : counts_) {
      out << value << " " << count << "\n";
    }
  }

 private:
  std::string path_;
  std::map<int64_t, int> counts_;
};

constexpr int kPipelineMessages = 200;

struct PipelineApp {
  dsps::Topology topology;
  DistOptions options;
};

PipelineApp BuildPipelineApp(const std::string& out_dir) {
  std::string result_path = out_dir + "/pipeline-result.txt";
  TopologyBuilder builder;
  builder.SetSpout("numbers",
                   [] { return std::make_unique<NumbersSpout>(kPipelineMessages); },
                   Fields({"v"}));
  builder.SetBolt("triple", [] { return std::make_unique<TripleBolt>(); },
                  Fields({"w"}), 2)
      .ShuffleGrouping("numbers");
  builder
      .SetBolt("sink",
               [result_path] {
                 return std::make_unique<FileCountSink>(result_path);
               },
               Fields({}))
      .GlobalGrouping("triple");
  auto topology = builder.Build();
  if (!topology.ok()) {  // shared by the worker role, where gtest is not up
    std::fprintf(stderr, "topology build failed: %s\n",
                 topology.status().ToString().c_str());
    std::abort();
  }

  DistOptions options;
  options.num_workers = 2;
  options.placement.worker_of = {{"numbers", 0}, {"triple", 1}, {"sink", 0}};
  options.runtime.enable_acking = true;
  options.runtime.ack_timeout_micros = 2'000'000;
  options.metrics_interval_micros = 100'000;
  options.worker_args = {"--insight-app=pipeline", "--insight-out=" + out_dir};
  return {std::move(*topology), std::move(options)};
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/insight-dist-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? std::string(dir) : std::string("/tmp");
}

std::map<int64_t, int> ReadCounts(const std::string& path) {
  std::map<int64_t, int> counts;
  std::ifstream in(path);
  int64_t value;
  int count;
  while (in >> value >> count) counts[value] = count;
  return counts;
}

TEST(DistributedEndToEndTest, TwoWorkerPipelineMatchesLocalResults) {
  std::string out_dir = MakeTempDir();
  PipelineApp app = BuildPipelineApp(out_dir);
  DistributedRuntime runtime(std::move(app.topology), app.options);
  ASSERT_TRUE(runtime.Start().ok());
  // Both cross-worker edges (numbers->triple, triple->sink) ride the wire.
  EXPECT_EQ(runtime.placement().worker_of.at("triple"), 1u);
  ASSERT_EQ(runtime.WaitForCompletion(120'000'000), 0);
  EXPECT_EQ(runtime.worker_restarts(), 0u);

  // The distributed run must produce exactly the LocalRuntime result: every
  // value 3i+1 for i in [0, n), each exactly once.
  std::map<int64_t, int> counts = ReadCounts(out_dir + "/pipeline-result.txt");
  ASSERT_EQ(counts.size(), static_cast<size_t>(kPipelineMessages));
  for (int i = 0; i < kPipelineMessages; ++i) {
    ASSERT_EQ(counts.count(int64_t{i} * 3 + 1), 1u) << "missing value for " << i;
    EXPECT_EQ(counts.at(int64_t{i} * 3 + 1), 1) << "duplicate for " << i;
  }

  // The supervisor aggregated worker metrics under worker="N" labels.
  observability::MetricsSnapshot cluster = runtime.ClusterMetrics();
  ASSERT_FALSE(cluster.counters.empty());
  bool saw_worker_label = false;
  for (const auto& family : cluster.counters) {
    for (const auto& sample : family.samples) {
      if (sample.labels.find("worker=\"") != std::string::npos) {
        saw_worker_label = true;
      }
    }
  }
  EXPECT_TRUE(saw_worker_label);
}

TEST(DistributedRuntimeTest, StartRejectsCheckpointingWithoutDirectory) {
  PipelineApp app = BuildPipelineApp("/tmp");
  app.options.runtime.enable_checkpointing = true;
  app.options.checkpoint_dir.clear();
  DistributedRuntime runtime(std::move(app.topology), app.options);
  EXPECT_FALSE(runtime.Start().ok());
}

}  // namespace

// Worker-role entry: invoked (pre-gtest) when this binary is re-exec'd by a
// supervisor. Must build the identical app the test's supervisor built.
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
  if (app != "pipeline" || out_dir.empty()) {
    std::fprintf(stderr, "unknown worker app '%s'\n", app.c_str());
    return 2;
  }
  PipelineApp built = BuildPipelineApp(out_dir);
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
