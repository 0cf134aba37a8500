// Observability layer: histogram bucketing/merging/percentiles, tracer
// sampling and span lifecycle, the Prometheus text exporter (golden-file
// check), and the end-to-end tracing acceptance run — a Listing-1-shaped
// acked topology whose per-hop spans must sum (within tolerance) to the
// measured end-to-end root span.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "dsps/local_runtime.h"
#include "dsps/topology.h"
#include "observability/export.h"
#include "observability/histogram.h"
#include "observability/trace.h"

namespace insight {
namespace observability {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketIndexMatchesBoundaries) {
  // Bounds are upper-inclusive: value v lands in the first bucket with
  // v <= bound; everything past the last bound lands in +Inf.
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(2), 1u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(5), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(10'000'000), 21u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(10'000'001),
            HistogramSnapshot::kNumBuckets - 1);
}

TEST(HistogramTest, RecordAndSnapshotCounts) {
  LatencyHistogram histogram;
  histogram.Record(1);
  histogram.Record(1);
  histogram.Record(700);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total(), 3u);
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[LatencyHistogram::BucketIndex(700)], 1u);
}

TEST(HistogramTest, MergeAddsElementwise) {
  LatencyHistogram a, b;
  a.Record(3);
  b.Record(3);
  b.Record(100);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.total(), 3u);
  EXPECT_EQ(merged.counts[LatencyHistogram::BucketIndex(3)], 2u);
  EXPECT_EQ(merged.counts[LatencyHistogram::BucketIndex(100)], 1u);
}

TEST(HistogramTest, EmptyPercentileIsZeroNotNaN) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.Percentile(50), 0.0);
  EXPECT_EQ(empty.Percentile(99), 0.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  // 100 observations of 3 us land in the (2, 5] bucket; the median rank
  // sits halfway through it: 2 + 0.5 * (5 - 2) = 3.5.
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(3);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Percentile(50), 3.5);
  // p100 reaches the bucket's upper bound.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(100), 5.0);
}

TEST(HistogramTest, PercentilesAreMonotone) {
  LatencyHistogram histogram;
  for (int i = 0; i < 50; ++i) histogram.Record(8);
  for (int i = 0; i < 45; ++i) histogram.Record(300);
  for (int i = 0; i < 5; ++i) histogram.Record(20'000);
  HistogramSnapshot snapshot = histogram.Snapshot();
  double p50 = snapshot.Percentile(50);
  double p95 = snapshot.Percentile(95);
  double p99 = snapshot.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 5.0);
  EXPECT_LE(p50, 10.0);
  EXPECT_GT(p99, 10'000.0);
}

TEST(HistogramTest, OverflowBucketReportsItsLowerBound) {
  // Ranks landing in +Inf have no upper bound to interpolate toward; the
  // honest answer is the last finite boundary, never NaN or infinity.
  LatencyHistogram histogram;
  for (int i = 0; i < 10; ++i) histogram.Record(20'000'000);
  EXPECT_DOUBLE_EQ(histogram.Snapshot().Percentile(99),
                   kLatencyBucketBoundsMicros.back());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, RateZeroSamplesNothing) {
  Tracer tracer({.sample_rate = 0.0});
  EXPECT_FALSE(tracer.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(tracer.MaybeStartTrace(i), 0u);
  }
  EXPECT_EQ(tracer.stats().started, 0u);
}

TEST(TracerTest, RateOneSamplesEveryEmissionWithFreshIds) {
  Tracer tracer({.sample_rate = 1.0});
  std::set<uint64_t> ids;
  for (int i = 0; i < 50; ++i) {
    uint64_t id = tracer.MaybeStartTrace(i);
    ASSERT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 50u);
  EXPECT_EQ(tracer.stats().started, 50u);
}

TEST(TracerTest, FractionalRateIsDeterministicOneInN) {
  Tracer tracer({.sample_rate = 0.5});
  int sampled = 0;
  for (int i = 0; i < 10; ++i) {
    if (tracer.MaybeStartTrace(i) != 0) ++sampled;
  }
  EXPECT_EQ(sampled, 5);  // 1-in-2 on a shared counter, not a coin flip
}

TEST(TracerTest, CompleteClosesRootOnceAndCountsDoubles) {
  Tracer tracer({.sample_rate = 1.0});
  uint64_t id = tracer.MaybeStartTrace(100);
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(tracer.CompleteTrace(id, 350));
  // The root span materialized with the open/close timestamps.
  auto spans = tracer.SpansForTrace(id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kRoot);
  EXPECT_EQ(spans[0].start_micros, 100);
  EXPECT_EQ(spans[0].end_micros, 350);
  // Completing again (a duplicate final ack) is counted, never doubled.
  EXPECT_FALSE(tracer.CompleteTrace(id, 400));
  Tracer::Stats stats = tracer.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.double_completions, 1u);
  EXPECT_EQ(tracer.SpansForTrace(id).size(), 1u);
}

TEST(TracerTest, AbandonDropsOpenTraceWithoutRootSpan) {
  Tracer tracer({.sample_rate = 1.0});
  uint64_t id = tracer.MaybeStartTrace(10);
  tracer.AbandonTrace(id);
  EXPECT_TRUE(tracer.SpansForTrace(id).empty());
  EXPECT_EQ(tracer.stats().abandoned, 1u);
  // The abandoned trace cannot be completed later (a straggler ack).
  EXPECT_FALSE(tracer.CompleteTrace(id, 99));
  EXPECT_EQ(tracer.stats().double_completions, 1u);
  // Abandoning twice (or an unknown id) counts nothing extra.
  tracer.AbandonTrace(id);
  EXPECT_EQ(tracer.stats().abandoned, 1u);
}

TEST(TracerTest, NonRootTraceOnlyGroupsHopSpans) {
  // open_root=false: no end-to-end ack exists (unacked topologies), so the
  // id only groups hop spans and CompleteTrace has nothing to close.
  Tracer tracer({.sample_rate = 1.0});
  uint64_t id = tracer.MaybeStartTrace(5, /*open_root=*/false);
  ASSERT_NE(id, 0u);
  tracer.RecordSpan(id, SpanKind::kExecute, 1, 0, 10, 20);
  EXPECT_EQ(tracer.SpansForTrace(id).size(), 1u);
  EXPECT_FALSE(tracer.CompleteTrace(id, 30));
}

TEST(TracerTest, SpanRingDropsOldestAtCapacity) {
  Tracer tracer({.sample_rate = 1.0, .max_spans = 4});
  uint64_t id = tracer.MaybeStartTrace(0, /*open_root=*/false);
  for (int i = 0; i < 6; ++i) {
    tracer.RecordSpan(id, SpanKind::kExecute, 0, 0, i, i + 1);
  }
  auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().start_micros, 2);  // 0 and 1 were evicted
  Tracer::Stats stats = tracer.stats();
  EXPECT_EQ(stats.spans_recorded, 6u);
  EXPECT_EQ(stats.spans_dropped, 2u);
}

TEST(TracerTest, OpenTableCapPausesSampling) {
  Tracer tracer({.sample_rate = 1.0, .max_open = 2});
  EXPECT_NE(tracer.MaybeStartTrace(0), 0u);
  EXPECT_NE(tracer.MaybeStartTrace(1), 0u);
  EXPECT_EQ(tracer.MaybeStartTrace(2), 0u);  // at cap: skipped, not queued
  EXPECT_EQ(tracer.stats().sample_skips_at_cap, 1u);
  EXPECT_EQ(tracer.stats().started, 2u);
}

TEST(TracerTest, ComponentNamesResolveWithFallback) {
  Tracer tracer({.sample_rate = 1.0});
  tracer.SetComponentNames({"source", "sink"});
  EXPECT_EQ(tracer.ComponentName(0), "source");
  EXPECT_EQ(tracer.ComponentName(1), "sink");
  EXPECT_EQ(tracer.ComponentName(-1), "?");
  EXPECT_EQ(tracer.ComponentName(7), "?");
}

// ---------------------------------------------------------------------------
// Prometheus text exporter
// ---------------------------------------------------------------------------

TEST(ExportTest, PrometheusTextMatchesGolden) {
  MetricsSnapshot snapshot;
  CounterFamily counter;
  counter.name = "insight_tuples_executed_total";
  counter.help = "Tuples executed";
  counter.samples.push_back({"component=\"sink\"", 42});
  counter.samples.push_back({"", 7});
  snapshot.counters.push_back(counter);

  HistogramFamily family;
  family.name = "insight_execute_latency_micros";
  family.help = "Execute latency";
  HistogramSample sample;
  sample.labels = "component=\"sink\"";
  sample.histogram.counts[0] = 2;  // two <= 1 us observations
  sample.histogram.counts[3] = 1;  // one in (5, 10] us
  sample.sum = 12.5;
  family.samples.push_back(sample);
  snapshot.histograms.push_back(family);

  const std::string expected =
      "# HELP insight_tuples_executed_total Tuples executed\n"
      "# TYPE insight_tuples_executed_total counter\n"
      "insight_tuples_executed_total{component=\"sink\"} 42\n"
      "insight_tuples_executed_total 7\n"
      "# HELP insight_execute_latency_micros Execute latency\n"
      "# TYPE insight_execute_latency_micros histogram\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"1\"} 2\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"2\"} 2\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"5\"} 2\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"10\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"25\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"50\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"100\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"250\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"500\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"1000\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"2500\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"5000\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"10000\"} "
      "3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"25000\"} "
      "3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"50000\"} "
      "3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"100000\"}"
      " 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"250000\"}"
      " 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"500000\"}"
      " 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\","
      "le=\"1000000\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\","
      "le=\"2500000\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\","
      "le=\"5000000\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\","
      "le=\"10000000\"} 3\n"
      "insight_execute_latency_micros_bucket{component=\"sink\",le=\"+Inf\"} "
      "3\n"
      "insight_execute_latency_micros_sum{component=\"sink\"} 12.5\n"
      "insight_execute_latency_micros_count{component=\"sink\"} 3\n";
  EXPECT_EQ(ExportPrometheusText(snapshot), expected);
}

TEST(ExportTest, TracerSnapshotCarriesAllLifecycleCounters) {
  Tracer tracer({.sample_rate = 1.0});
  uint64_t completed_id = tracer.MaybeStartTrace(0);
  tracer.RecordSpan(completed_id, SpanKind::kExecute, 0, 0, 1, 2);
  tracer.CompleteTrace(completed_id, 10);
  uint64_t abandoned_id = tracer.MaybeStartTrace(20);
  tracer.AbandonTrace(abandoned_id);
  tracer.CompleteTrace(abandoned_id, 30);  // double completion

  std::string text = ExportPrometheusText(TracerSnapshot(tracer));
  EXPECT_NE(text.find("insight_traces_started_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("insight_traces_completed_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("insight_traces_abandoned_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("insight_trace_double_completions_total 1\n"),
            std::string::npos);
  // The root span of the completed trace counts alongside the execute span.
  EXPECT_NE(text.find("insight_trace_spans_recorded_total 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("insight_trace_spans_dropped_total 0\n"),
            std::string::npos);
}

TEST(ExportTest, WriteTextFileRoundTripsAndReportsIoErrors) {
  std::string path = ::testing::TempDir() + "/metrics.prom";
  ASSERT_TRUE(WriteTextFile(path, "a b 1\n").ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[32] = {};
  size_t n = std::fread(buffer, 1, sizeof(buffer), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buffer, n), "a b 1\n");

  Status bad = WriteTextFile("/nonexistent-dir-xyz/metrics.prom", "x");
  EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------------------------------
// End-to-end: spans vs measured latency on a Listing-1-shaped topology
// ---------------------------------------------------------------------------

using dsps::Bolt;
using dsps::Collector;
using dsps::Fields;
using dsps::LocalRuntime;
using dsps::Spout;
using dsps::TaskContext;
using dsps::TopologyBuilder;
using dsps::Tuple;
using dsps::Value;

/// Emits [0, n) as rooted (tracked) tuples.
class RootedSpout : public Spout {
 public:
  explicit RootedSpout(int n) : n_(n) {}
  bool NextTuple(Collector* collector) override {
    if (next_ >= n_) return false;
    collector->EmitRooted(static_cast<uint64_t>(next_),
                          {Value(int64_t{next_})});
    ++next_;
    return next_ < n_;
  }

 private:
  int n_;
  int next_ = 0;
};

/// Burns a known amount of wall time, then forwards. The sleep sits BEFORE
/// the emit so downstream queue-wait spans never overlap this bolt's
/// execute span (emitting first would let the child's queue wait cover this
/// bolt's remaining execution).
class SleepRelayBolt : public Bolt {
 public:
  explicit SleepRelayBolt(int sleep_micros, bool forward)
      : sleep_micros_(sleep_micros), forward_(forward) {}
  void Execute(const Tuple& input, Collector* collector) override {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros_));
    if (forward_) collector->Emit({input.Get(0)});
  }

 private:
  int sleep_micros_;
  bool forward_;
};

TEST(TracingEndToEndTest, SpansSumToMeasuredEndToEndLatency) {
  static constexpr int kTuples = 10;
  static constexpr int kSleepMicros = 1000;
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [] { return std::make_unique<RootedSpout>(kTuples); },
                   Fields({"v"}));
  builder
      .SetBolt("enrich",
               [] {
                 return std::make_unique<SleepRelayBolt>(kSleepMicros,
                                                         /*forward=*/true);
               },
               Fields({"v"}))
      .ShuffleGrouping("source");
  builder
      .SetBolt("detect",
               [] {
                 return std::make_unique<SleepRelayBolt>(kSleepMicros,
                                                         /*forward=*/false);
               },
               Fields({}))
      .ShuffleGrouping("enrich");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.enable_acking = true;
  options.enable_tracing = true;
  options.trace_sample_rate = 1.0;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  Tracer* tracer = runtime.tracer();
  ASSERT_NE(tracer, nullptr);
  Tracer::Stats stats = tracer->stats();
  EXPECT_EQ(stats.started, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_EQ(stats.double_completions, 0u);

  std::map<uint64_t, std::vector<TraceSpan>> by_trace;
  for (const TraceSpan& span : tracer->Spans()) {
    by_trace[span.trace_id].push_back(span);
  }
  ASSERT_EQ(by_trace.size(), static_cast<size_t>(kTuples));

  double total_root = 0, total_hops = 0;
  for (const auto& [id, spans] : by_trace) {
    MicrosT root = 0, exec_sum = 0, queue_sum = 0;
    int roots = 0, execs = 0;
    for (const TraceSpan& span : spans) {
      switch (span.kind) {
        case SpanKind::kRoot:
          ++roots;
          root = span.duration_micros();
          break;
        case SpanKind::kExecute:
          ++execs;
          exec_sum += span.duration_micros();
          EXPECT_TRUE(tracer->ComponentName(span.component) == "enrich" ||
                      tracer->ComponentName(span.component) == "detect");
          break;
        case SpanKind::kQueueWait:
        case SpanKind::kEmitBlocked:
          queue_sum += span.duration_micros();
          break;
      }
    }
    ASSERT_EQ(roots, 1) << "trace " << id;
    ASSERT_EQ(execs, 2) << "trace " << id;  // one hop per bolt
    // Both sleeps are inside the execute spans, which sit inside the root.
    EXPECT_GE(exec_sum, 2 * kSleepMicros);
    EXPECT_GE(root, exec_sum);
    total_root += static_cast<double>(root);
    total_hops += static_cast<double>(exec_sum + queue_sum);
  }
  // Acceptance: per-hop spans account for the measured end-to-end latency.
  // Uncovered gaps (emit -> stage, final ack processing) and the one
  // overlap (a bolt's post-emit tail vs its child's queue wait) are small
  // against two 1 ms sleeps; aggregate over all traces for noise immunity.
  EXPECT_GE(total_hops, 0.5 * total_root);
  EXPECT_LE(total_hops, 1.25 * total_root);
}

TEST(TracingEndToEndTest, UnackedTopologyTracesHopsWithoutRoots) {
  // Without acking no final ack exists: traces group hop spans only, and
  // nothing leaks in the open-trace table (completed == abandoned == 0).
  static constexpr int kTuples = 50;
  struct PlainSpout : public Spout {
    int next = 0;
    bool NextTuple(Collector* collector) override {
      if (next >= kTuples) return false;
      collector->Emit({Value(int64_t{next})});
      ++next;
      return next < kTuples;
    }
  };
  TopologyBuilder builder;
  builder.SetSpout("source", [] { return std::make_unique<PlainSpout>(); },
                   Fields({"v"}));
  builder
      .SetBolt("sink",
               [] {
                 return std::make_unique<SleepRelayBolt>(0, /*forward=*/false);
               },
               Fields({}))
      .ShuffleGrouping("source");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());

  LocalRuntime::Options options;
  options.enable_tracing = true;
  options.trace_sample_rate = 1.0;
  LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();

  Tracer::Stats stats = runtime.tracer()->stats();
  EXPECT_EQ(stats.started, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.abandoned, 0u);
  int roots = 0, execs = 0, queues = 0;
  for (const TraceSpan& span : runtime.tracer()->Spans()) {
    if (span.kind == SpanKind::kRoot) ++roots;
    if (span.kind == SpanKind::kExecute) ++execs;
    if (span.kind == SpanKind::kQueueWait) ++queues;
  }
  EXPECT_EQ(roots, 0);
  EXPECT_EQ(execs, kTuples);
  EXPECT_EQ(queues, kTuples);
}

TEST(TracingEndToEndTest, TracingDisabledLeavesNoTracer) {
  TopologyBuilder builder;
  builder.SetSpout("source",
                   [] { return std::make_unique<RootedSpout>(1); },
                   Fields({"v"}));
  builder
      .SetBolt("sink",
               [] {
                 return std::make_unique<SleepRelayBolt>(0, /*forward=*/false);
               },
               Fields({}))
      .ShuffleGrouping("source");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  LocalRuntime runtime(std::move(*topology), {});
  EXPECT_EQ(runtime.tracer(), nullptr);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
}

}  // namespace
}  // namespace observability
}  // namespace insight
