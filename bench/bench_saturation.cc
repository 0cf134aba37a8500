// Saturation chaos bench: overload protection under sustained over-offered
// input. A slow sink (fixed sleep per tuple, so the service time is real
// wall time but the core stays free for the producers — the bench must
// measure queueing, not CPU time-slicing, even on a single-core host) is
// fed by two paced spouts — 95% bulk traffic at kLow and 5% critical
// traffic at kHigh — with the offered rate swept across multiples of the
// sink's calibrated capacity.
//
// With priority-aware shedding enabled (backpressure is the runtime's
// blocking bounded queue), three properties are gated (nonzero exit on
// violation):
//
//  1. Bounded critical latency: once overloaded, the high-priority tail does
//     not depend on the load (shedding pins queue occupancy at the watermark
//     and the priority drain lets kHigh jump that standing queue), so the
//     p99 at 10x stays within 1.25x of the p99 at 2x, and under an absolute
//     ceiling derived from the bench's constants (see P99Ceiling). The 1x
//     p99 is printed and recorded but not gated: below capacity the tail is
//     scheduler noise, and a ratio against it passes or fails on that noise.
//  2. Zero unaccounted tuples at every load: emitted == executed + shed,
//     and kHigh is never shed.
//  3. Disabled identity: with shedding off, a sub-capacity run delivers
//     everything and moves no shed counter — the seed's behavior exactly.
//
// Usage: bench_saturation [--quick] [out.json]  (default BENCH_saturation.json)
// --quick runs only the 1x, 2x and 10x points with shorter phases (CI
// smoke).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "dsps/local_runtime.h"
#include "dsps/overload.h"
#include "dsps/topology.h"

namespace insight {
namespace bench {
namespace {

using dsps::Bolt;
using dsps::Collector;
using dsps::Fields;
using dsps::LocalRuntime;
using dsps::Spout;
using dsps::TopologyBuilder;
using dsps::Tuple;
using dsps::TuplePriority;
using dsps::Value;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Emits at `rate_per_sec` for `duration_micros`, catching up in bursts when
/// behind schedule. Critical spouts stamp the emit time into the tuple so
/// the sink can measure end-to-end latency; bulk spouts stamp -1.
class PacedSpout : public Spout {
 public:
  PacedSpout(double rate_per_sec, int64_t duration_micros, bool stamp_time)
      : rate_per_sec_(rate_per_sec),
        duration_micros_(duration_micros),
        stamp_time_(stamp_time) {}

  bool NextTuple(Collector* collector) override {
    if (start_micros_ == 0) start_micros_ = NowMicros();
    int64_t now = NowMicros();
    if (now - start_micros_ >= duration_micros_) return false;
    int64_t due = static_cast<int64_t>(
        (static_cast<double>(now - start_micros_) / 1e6) * rate_per_sec_);
    if (emitted_ >= due) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      return true;
    }
    // Catch up in a bounded burst so one NextTuple call never monopolizes
    // the executor after a long stall. The cap also smooths the offered
    // rate: an unbounded catch-up burst on top of the shed-watermark
    // standing queue would spike occupancy straight to capacity.
    int64_t burst = std::min<int64_t>(due - emitted_, 64);
    for (int64_t i = 0; i < burst; ++i) {
      collector->Emit({Value(stamp_time_ ? NowMicros() : int64_t{-1})});
      ++emitted_;
    }
    return true;
  }

 private:
  double rate_per_sec_;
  int64_t duration_micros_;
  bool stamp_time_;
  int64_t start_micros_ = 0;
  int64_t emitted_ = 0;
};

/// Burns `service_micros` of wall time per tuple and records the latency of
/// every time-stamped (critical) tuple.
class SlowSink : public Bolt {
 public:
  struct Stats {
    Mutex mutex;
    std::vector<int64_t> critical_latency_micros;
    int64_t executed = 0;
  };
  SlowSink(std::shared_ptr<Stats> stats, int64_t service_micros)
      : stats_(std::move(stats)), service_micros_(service_micros) {}

  void Execute(const Tuple& input, Collector*) override {
    int64_t stamp = input.Get(0).AsInt();
    int64_t arrival = NowMicros();
    // Sleep, don't spin: on a single-core host a busy-spinning sink would
    // starve the spout threads and the measured tail would be scheduler
    // quanta rather than queueing delay.
    std::this_thread::sleep_for(std::chrono::microseconds(service_micros_));
    MutexLock lock(stats_->mutex);
    ++stats_->executed;
    if (stamp >= 0) {
      stats_->critical_latency_micros.push_back(arrival - stamp);
    }
  }

 private:
  std::shared_ptr<Stats> stats_;
  int64_t service_micros_;
};

constexpr int64_t kServiceMicros = 300;
constexpr size_t kQueueCapacity = 64;
constexpr size_t kBatch = 4;  // emit_batch and max_batch alike

/// Ceiling on the overloaded kHigh p99. A kHigh tuple that reaches the sink
/// queue waits for the batch the sink is executing: at most kBatch tuples of
/// kServiceMicros each (the measured overloaded tail, ~1 430 us, sits
/// there). The priority drain then takes it ahead of the standing kLow
/// queue. kHigh arrives at half the sink's capacity even at 10x, so about
/// one kHigh tuple is ahead of it: (kBatch + 1) service times, 1 500 us.
/// The factor 2 absorbs sleep and scheduler overshoot on a loaded host.
/// Without the priority drain the tail is the standing kLow queue (14-15 ms
/// measured); without shedding, the full queue and blocked producers
/// (35-54 ms measured).
constexpr int64_t P99Ceiling() {
  return 2 * static_cast<int64_t>(kBatch + 1) * kServiceMicros;
}
/// Allowed growth of the kHigh p99 from 2x to 10x offered load.
constexpr double kOverloadP99Ratio = 1.25;

int64_t Percentile(std::vector<int64_t>* values, double p) {
  if (values->empty()) return 0;
  size_t index = static_cast<size_t>(p * static_cast<double>(values->size()));
  if (index >= values->size()) index = values->size() - 1;
  std::nth_element(values->begin(),
                   values->begin() + static_cast<ptrdiff_t>(index),
                   values->end());
  return (*values)[static_cast<ptrdiff_t>(index)];
}

/// Unpaced all-out run: how many tuples/sec one sink task sustains.
double CalibrateCapacity(int64_t duration_micros) {
  auto stats = std::make_shared<SlowSink::Stats>();
  TopologyBuilder builder;
  builder.SetSpout("source", [duration_micros] {
    return std::make_unique<PacedSpout>(1e9, duration_micros, false);
  }, Fields({"t"}));
  builder.SetBolt("sink", [stats] {
    return std::make_unique<SlowSink>(stats, kServiceMicros);
  }, Fields({})).ShuffleGrouping("source");
  auto topology = builder.Build();
  INSIGHT_CHECK(topology.ok()) << topology.status().ToString();

  LocalRuntime::Options options;
  options.queue_capacity = kQueueCapacity;
  options.emit_batch = kBatch;
  options.max_batch = kBatch;
  LocalRuntime runtime(std::move(*topology), options);
  INSIGHT_CHECK(runtime.Start().ok());
  int64_t start = NowMicros();
  runtime.AwaitCompletion();
  int64_t elapsed = NowMicros() - start;
  runtime.Stop();
  return static_cast<double>(stats->executed) * 1e6 /
         static_cast<double>(elapsed);
}

struct LoadRow {
  double load_factor = 0;
  uint64_t emitted = 0;
  uint64_t executed = 0;
  uint64_t shed_low = 0;
  uint64_t shed_normal = 0;
  uint64_t shed_high = 0;
  uint64_t critical_emitted = 0;
  uint64_t critical_delivered = 0;
  int64_t critical_p50_micros = 0;
  int64_t critical_p99_micros = 0;
  bool accounted = false;
};

LoadRow RunLoad(double capacity_per_sec, double load_factor,
                int64_t duration_micros, bool shedding) {
  auto stats = std::make_shared<SlowSink::Stats>();
  double offered = capacity_per_sec * load_factor;
  double bulk_rate = offered * 0.95;
  double critical_rate = offered * 0.05;
  TopologyBuilder builder;
  builder.SetSpout("bulk", [bulk_rate, duration_micros] {
    return std::make_unique<PacedSpout>(bulk_rate, duration_micros, false);
  }, Fields({"t"}));
  builder.SetSpout("critical", [critical_rate, duration_micros] {
    return std::make_unique<PacedSpout>(critical_rate, duration_micros, true);
  }, Fields({"t"}));
  builder.SetBolt("sink", [stats] {
    return std::make_unique<SlowSink>(stats, kServiceMicros);
  }, Fields({}))
      .ShuffleGrouping("bulk")
      .ShuffleGrouping("critical");
  builder.SetPriority("bulk", TuplePriority::kLow);
  builder.SetPriority("critical", TuplePriority::kHigh);
  auto topology = builder.Build();
  INSIGHT_CHECK(topology.ok()) << topology.status().ToString();

  LocalRuntime::Options options;
  options.queue_capacity = kQueueCapacity;
  options.emit_batch = kBatch;
  options.max_batch = kBatch;
  if (shedding) {
    options.overload.enable_load_shedding = true;
    // Shedding pins queue occupancy near the low watermark whatever the
    // offered load, which is what keeps critical p99 load-independent:
    // the upper half of the queue is headroom only kNormal/kHigh may use.
    options.overload.shed_low_watermark = 0.5;
    options.overload.shed_high_watermark = 0.9;
  }
  LocalRuntime runtime(std::move(*topology), options);
  INSIGHT_CHECK(runtime.Start().ok());
  runtime.AwaitCompletion();

  LoadRow row;
  row.load_factor = load_factor;
  auto bulk = runtime.metrics()->Totals("bulk");
  auto critical = runtime.metrics()->Totals("critical");
  auto sink = runtime.metrics()->Totals("sink");
  row.emitted = bulk.emitted + critical.emitted;
  row.executed = sink.executed;
  row.shed_low = sink.shed_low;
  row.shed_normal = sink.shed_normal;
  row.shed_high = sink.shed_high;
  row.critical_emitted = critical.emitted;
  {
    MutexLock lock(stats->mutex);
    row.critical_delivered = stats->critical_latency_micros.size();
    row.critical_p50_micros =
        Percentile(&stats->critical_latency_micros, 0.50);
    row.critical_p99_micros =
        Percentile(&stats->critical_latency_micros, 0.99);
  }
  // After AwaitCompletion + natural spout exhaustion nothing is in flight:
  // every emitted tuple was either executed or shed.
  row.accounted =
      row.emitted == row.executed + row.shed_low + row.shed_normal +
                         row.shed_high;
  runtime.Stop();
  return row;
}

int Main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_saturation.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const int64_t calibrate_micros = quick ? 500'000 : 800'000;
  const int64_t phase_micros = quick ? 1'500'000 : 3'000'000;
  std::vector<double> loads =
      quick ? std::vector<double>{1, 2, 10} : std::vector<double>{1, 2, 5, 10};

  double capacity = CalibrateCapacity(calibrate_micros);
  std::printf("calibrated sink capacity: %.0f tuples/sec "
              "(%lld us service)\n\n",
              capacity, static_cast<long long>(kServiceMicros));

  std::printf("%6s %10s %10s %10s %10s %10s %12s %12s\n", "load",
              "emitted", "executed", "shed_low", "shed_norm", "shed_high",
              "crit p50us", "crit p99us");
  std::vector<LoadRow> rows;
  bool ok = true;
  for (double load : loads) {
    LoadRow row = RunLoad(capacity, load, phase_micros, true);
    rows.push_back(row);
    std::printf("%5.0fx %10llu %10llu %10llu %10llu %10llu %12lld %12lld\n",
                row.load_factor,
                static_cast<unsigned long long>(row.emitted),
                static_cast<unsigned long long>(row.executed),
                static_cast<unsigned long long>(row.shed_low),
                static_cast<unsigned long long>(row.shed_normal),
                static_cast<unsigned long long>(row.shed_high),
                static_cast<long long>(row.critical_p50_micros),
                static_cast<long long>(row.critical_p99_micros));
    if (!row.accounted) {
      std::printf("GATE FAIL: %llu tuples unaccounted at %.0fx\n",
                  static_cast<unsigned long long>(
                      row.emitted - row.executed - row.shed_low -
                      row.shed_normal - row.shed_high),
                  row.load_factor);
      ok = false;
    }
    if (row.shed_high != 0) {
      std::printf("GATE FAIL: %llu kHigh tuples shed at %.0fx\n",
                  static_cast<unsigned long long>(row.shed_high),
                  row.load_factor);
      ok = false;
    }
    if (row.critical_delivered != row.critical_emitted) {
      std::printf("GATE FAIL: critical delivered %llu != emitted %llu at "
                  "%.0fx\n",
                  static_cast<unsigned long long>(row.critical_delivered),
                  static_cast<unsigned long long>(row.critical_emitted),
                  row.load_factor);
      ok = false;
    }
  }

  // Gate 1: the overloaded kHigh tail is load-independent and bounded.
  auto p99_at = [&rows](double load) {
    for (const LoadRow& row : rows) {
      if (row.load_factor == load) return row.critical_p99_micros;
    }
    return int64_t{0};
  };
  const int64_t p99_1x = p99_at(1);
  const int64_t p99_2x = p99_at(2);
  const int64_t p99_10x = p99_at(10);
  const double p99_ratio =
      p99_2x > 0 ? static_cast<double>(p99_10x) / static_cast<double>(p99_2x)
                 : 0.0;
  const bool ratio_ok =
      static_cast<double>(p99_10x) <=
      kOverloadP99Ratio * static_cast<double>(p99_2x);
  const bool ceiling_ok = p99_10x <= P99Ceiling();
  std::printf("\ncritical p99: 1x=%lld us, 2x=%lld us, 10x=%lld us "
              "(gate: 10x <= %.2fx the 2x p99, ratio %.2f; 10x <= %lld us)\n",
              static_cast<long long>(p99_1x), static_cast<long long>(p99_2x),
              static_cast<long long>(p99_10x), kOverloadP99Ratio, p99_ratio,
              static_cast<long long>(P99Ceiling()));
  if (!ratio_ok) {
    std::printf("GATE FAIL: high-priority p99 at 10x (%lld us) exceeds "
                "%.2fx the 2x p99 (%lld us)\n",
                static_cast<long long>(p99_10x), kOverloadP99Ratio,
                static_cast<long long>(p99_2x));
    ok = false;
  }
  if (!ceiling_ok) {
    std::printf("GATE FAIL: high-priority p99 at 10x (%lld us) exceeds the "
                "%lld us ceiling\n",
                static_cast<long long>(p99_10x),
                static_cast<long long>(P99Ceiling()));
    ok = false;
  }

  // Gate 3: shedding off at sub-capacity load == seed behavior.
  LoadRow disabled = RunLoad(capacity, 0.5, phase_micros / 2, false);
  std::printf("\ndisabled 0.5x: emitted=%llu executed=%llu shed=%llu\n",
              static_cast<unsigned long long>(disabled.emitted),
              static_cast<unsigned long long>(disabled.executed),
              static_cast<unsigned long long>(
                  disabled.shed_low + disabled.shed_normal +
                  disabled.shed_high));
  if (disabled.emitted != disabled.executed ||
      disabled.shed_low + disabled.shed_normal + disabled.shed_high != 0) {
    std::printf("GATE FAIL: disabled overload protection is not "
                "seed-identical\n");
    ok = false;
  }

  std::FILE* f = std::fopen(out_path, "w");
  INSIGHT_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f, "{\n  \"capacity_tuples_per_sec\": %.1f,\n", capacity);
  std::fprintf(f, "  \"service_micros\": %lld,\n",
               static_cast<long long>(kServiceMicros));
  std::fprintf(f, "  \"loads\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const LoadRow& row = rows[i];
    std::fprintf(
        f,
        "    {\"load_factor\": %.0f, \"emitted\": %llu, \"executed\": %llu, "
        "\"shed_low\": %llu, \"shed_normal\": %llu, \"shed_high\": %llu, "
        "\"critical_p50_micros\": %lld, \"critical_p99_micros\": %lld, "
        "\"accounted\": %s}%s\n",
        row.load_factor, static_cast<unsigned long long>(row.emitted),
        static_cast<unsigned long long>(row.executed),
        static_cast<unsigned long long>(row.shed_low),
        static_cast<unsigned long long>(row.shed_normal),
        static_cast<unsigned long long>(row.shed_high),
        static_cast<long long>(row.critical_p50_micros),
        static_cast<long long>(row.critical_p99_micros),
        row.accounted ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"p99_gate\": {\"p99_1x_micros\": %lld, "
               "\"p99_2x_micros\": %lld, \"p99_10x_micros\": %lld, "
               "\"ratio_10x_to_2x\": %.3f, \"max_ratio\": %.2f, "
               "\"ceiling_micros\": %lld, \"pass\": %s},\n",
               static_cast<long long>(p99_1x), static_cast<long long>(p99_2x),
               static_cast<long long>(p99_10x), p99_ratio, kOverloadP99Ratio,
               static_cast<long long>(P99Ceiling()),
               ratio_ok && ceiling_ok ? "true" : "false");
  std::fprintf(f, "  \"disabled_identity\": %s\n}\n",
               disabled.emitted == disabled.executed ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  if (!ok) {
    std::printf("\nSATURATION GATES FAILED\n");
    return 1;
  }
  std::printf("\nall saturation gates passed\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace insight

int main(int argc, char** argv) { return insight::bench::Main(argc, argv); }
