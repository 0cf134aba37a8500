#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/clock.h"
#include "common/mutex.h"
#include "dsps/local_runtime.h"
#include "dsps/topology.h"
#include "traffic/bolts.h"
#include "traffic/generator.h"
#include "traffic/trace.h"

namespace insight {
namespace traffic {
namespace {

TraceGenerator::Options SmallOptions() {
  TraceGenerator::Options options;
  options.num_buses = 30;
  options.num_lines = 5;
  options.start_hour = 8;
  options.end_hour = 9;
  options.seed = 3;
  return options;
}

// ---------------------------------------------------------------------------
// BusTrace CSV round trip
// ---------------------------------------------------------------------------

TEST(BusTraceTest, CsvRoundTrip) {
  BusTrace t;
  t.timestamp = 123456789;
  t.line_id = 41;
  t.direction = true;
  t.position = {53.3498, -6.2603};
  t.delay_seconds = -42.5;
  t.congestion = true;
  t.reported_stop_id = 41007;
  t.vehicle_id = 33123;
  t.speed_kmh = 23.75;
  t.actual_delay = 3.25;
  t.hour = 9;
  t.date_type = "weekend";
  t.area_leaf = 77;
  t.bus_stop = 12;
  auto row = t.ToCsvRow();
  ASSERT_EQ(row.size(), static_cast<size_t>(TraceCsv::kNumColumns));
  auto parsed = BusTrace::FromCsvRow(row);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->timestamp, t.timestamp);
  EXPECT_EQ(parsed->line_id, t.line_id);
  EXPECT_EQ(parsed->direction, t.direction);
  EXPECT_NEAR(parsed->position.lat, t.position.lat, 1e-5);
  EXPECT_DOUBLE_EQ(parsed->delay_seconds, -42.5);
  EXPECT_EQ(parsed->congestion, true);
  EXPECT_EQ(parsed->reported_stop_id, 41007);
  EXPECT_EQ(parsed->vehicle_id, 33123);
  EXPECT_EQ(parsed->hour, 9);
  EXPECT_EQ(parsed->date_type, "weekend");
  EXPECT_EQ(parsed->area_leaf, 77);
  EXPECT_EQ(parsed->bus_stop, 12);
}

TEST(BusTraceTest, RejectsShortRow) {
  EXPECT_FALSE(BusTrace::FromCsvRow({"1", "2"}).ok());
}

// ---------------------------------------------------------------------------
// TraceGenerator — Table 2 properties
// ---------------------------------------------------------------------------

TEST(TraceGeneratorTest, TimestampsAreMonotone) {
  TraceGenerator generator(SmallOptions());
  BusTrace trace;
  MicrosT last = -1;
  int count = 0;
  while (generator.Next(&trace) && count < 2000) {
    EXPECT_GE(trace.timestamp, last);
    last = trace.timestamp;
    ++count;
  }
  EXPECT_GT(count, 1000);
}

TEST(TraceGeneratorTest, ReportIntervalPerBusIs20Seconds) {
  TraceGenerator generator(SmallOptions());
  std::map<int, MicrosT> last_per_vehicle;
  BusTrace trace;
  int checked = 0;
  while (generator.Next(&trace) && checked < 1000) {
    auto it = last_per_vehicle.find(trace.vehicle_id);
    if (it != last_per_vehicle.end()) {
      EXPECT_EQ(trace.timestamp - it->second, 20'000'000);
      ++checked;
    }
    last_per_vehicle[trace.vehicle_id] = trace.timestamp;
  }
  EXPECT_GT(checked, 500);
}

TEST(TraceGeneratorTest, Table2ShapeHolds) {
  // Full-fleet options but a short service window.
  TraceGenerator::Options options;
  options.num_buses = 911;
  options.num_lines = 67;
  options.start_hour = 8;
  options.end_hour = 8;  // invalid; fix below
  options.end_hour = 9;
  TraceGenerator generator(options);
  std::set<int> vehicles, lines;
  BusTrace trace;
  size_t count = 0;
  while (generator.Next(&trace)) {
    vehicles.insert(trace.vehicle_id);
    lines.insert(trace.line_id);
    ++count;
  }
  EXPECT_EQ(vehicles.size(), 911u);
  EXPECT_EQ(lines.size(), 67u);
  // 911 buses x 180 reports/hour = ~164k.
  EXPECT_NEAR(static_cast<double>(count), 911.0 * 180.0, 911.0);
}

TEST(TraceGeneratorTest, PositionsStayInDublin) {
  TraceGenerator generator(SmallOptions());
  auto bounds = geo::DublinBounds();
  BusTrace trace;
  int count = 0;
  while (generator.Next(&trace) && count < 3000) {
    EXPECT_GE(trace.position.lat, bounds.min_lat - 0.01);
    EXPECT_LE(trace.position.lat, bounds.max_lat + 0.01);
    EXPECT_GE(trace.position.lon, bounds.min_lon - 0.02);
    EXPECT_LE(trace.position.lon, bounds.max_lon + 0.02);
    ++count;
  }
}

TEST(TraceGeneratorTest, DeterministicForSeed) {
  TraceGenerator a(SmallOptions()), b(SmallOptions());
  BusTrace ta, tb;
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(a.Next(&ta), b.Next(&tb));
    EXPECT_EQ(ta.timestamp, tb.timestamp);
    EXPECT_EQ(ta.vehicle_id, tb.vehicle_id);
    EXPECT_DOUBLE_EQ(ta.delay_seconds, tb.delay_seconds);
  }
}

TEST(TraceGeneratorTest, RushHourIsMoreCongested) {
  EXPECT_GT(TraceGenerator::HourCongestion(8, false),
            TraceGenerator::HourCongestion(3, false));
  EXPECT_GT(TraceGenerator::HourCongestion(17, false),
            TraceGenerator::HourCongestion(12, false));
  // Weekends have no morning rush.
  EXPECT_LT(TraceGenerator::HourCongestion(8, true),
            TraceGenerator::HourCongestion(8, false));
}

TEST(TraceGeneratorTest, IncidentsSlowNearbyBuses) {
  TraceGenerator::Options options = SmallOptions();
  options.incidents_per_hour = 30.0;  // force incidents
  options.end_hour = 10;
  TraceGenerator generator(options);
  auto traces = generator.GenerateAll();
  ASSERT_FALSE(generator.incidents().empty());
  // Buses inside an active incident radius must be slower on average.
  double in_sum = 0, out_sum = 0;
  size_t in_n = 0, out_n = 0;
  for (const BusTrace& t : traces) {
    bool inside = false;
    for (const Incident& incident : generator.incidents()) {
      if (t.timestamp >= incident.start && t.timestamp <= incident.end &&
          geo::HaversineMeters(t.position, incident.center) <=
              incident.radius_meters) {
        inside = true;
        break;
      }
    }
    if (inside) {
      in_sum += t.speed_kmh;
      ++in_n;
    } else {
      out_sum += t.speed_kmh;
      ++out_n;
    }
  }
  ASSERT_GT(in_n, 20u);
  ASSERT_GT(out_n, 20u);
  EXPECT_LT(in_sum / in_n, 0.7 * (out_sum / out_n));
}

TEST(TraceGeneratorTest, StopReportsIncludeNoiseButClusterAtStops) {
  TraceGenerator::Options options = SmallOptions();
  options.end_hour = 10;
  TraceGenerator generator(options);
  auto reports = generator.CollectStopReports(400);
  ASSERT_GE(reports.size(), 100u);
  for (const auto& report : reports) {
    EXPECT_GE(report.line_id, 0);
    EXPECT_LT(report.line_id, options.num_lines);
  }
}

TEST(TraceGeneratorTest, CsvWriterProducesParsableRows) {
  TraceGenerator generator(SmallOptions());
  std::ostringstream out;
  size_t written = generator.WriteCsv(&out, 100);
  EXPECT_EQ(written, 100u);
  std::istringstream in(out.str());
  auto traces = LoadTracesCsv(&in);
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  EXPECT_EQ(traces->size(), 100u);
}

// ---------------------------------------------------------------------------
// Tuple schema helpers
// ---------------------------------------------------------------------------

TEST(TupleSchemaTest, EnrichedFieldsMatchBusEventFields) {
  for (const std::vector<int>& layers :
       {std::vector<int>{}, std::vector<int>{2, 3}}) {
    dsps::Fields fields = EnrichedFields(layers);
    auto event_fields = BusEventFields(layers);
    ASSERT_EQ(fields.size(), event_fields.size());
    for (size_t i = 0; i < event_fields.size(); ++i) {
      EXPECT_EQ(fields.names()[i], event_fields[i].name) << "index " << i;
    }
  }
}

TEST(TupleSchemaTest, RawValuesAlignWithRawFields) {
  BusTrace t;
  t.timestamp = 5;
  t.vehicle_id = 42;
  auto values = TraceToRawValues(t);
  dsps::Fields fields = RawTraceFields();
  ASSERT_EQ(values.size(), fields.size());
  EXPECT_EQ(values[static_cast<size_t>(fields.IndexOf("vehicle"))].AsInt(), 42);
  EXPECT_EQ(values[static_cast<size_t>(fields.IndexOf("timestamp"))].AsInt(), 5);
}

// ---------------------------------------------------------------------------
// Run boundaries of a long-lived topology
// ---------------------------------------------------------------------------

class CapturingCollector : public dsps::Collector {
 public:
  void Emit(std::vector<dsps::Value> values) override {
    emitted.push_back(std::move(values));
  }
  void EmitDirect(int, std::vector<dsps::Value> values) override {
    emitted.push_back(std::move(values));
  }
  std::vector<std::vector<dsps::Value>> emitted;
};

BusTrace Report(int vehicle, MicrosT timestamp, double delay) {
  BusTrace t;
  t.vehicle_id = vehicle;
  t.timestamp = timestamp;
  t.position = {53.35, -6.26};
  t.delay_seconds = delay;
  t.hour = 8;
  t.date_type = "weekday";
  t.area_leaf = 7;
  return t;
}

TEST(RunBoundaryTest, BusReaderSpoutFeedRewindsToTheNewDataset) {
  auto first = std::make_shared<const std::vector<BusTrace>>(
      std::vector<BusTrace>{Report(1, 1, 0), Report(2, 2, 0), Report(3, 3, 0)});
  BusReaderSpout spout(first);
  spout.Open({"busReader", 0, 1});
  CapturingCollector out;
  while (spout.NextTuple(&out)) {
  }
  ASSERT_EQ(out.emitted.size(), 3u);
  EXPECT_FALSE(spout.NextTuple(&out));  // exhausted
  EXPECT_EQ(out.emitted.size(), 3u);

  spout.Feed(std::make_shared<const std::vector<BusTrace>>(
      std::vector<BusTrace>{Report(8, 5, 0), Report(9, 6, 0)}));
  while (spout.NextTuple(&out)) {
  }
  ASSERT_EQ(out.emitted.size(), 5u);
  EXPECT_EQ(out.emitted[3][8].AsInt(), 8);  // vehicle
  EXPECT_EQ(out.emitted[4][8].AsInt(), 9);
}

TEST(RunBoundaryTest, PreProcessNewStreamReseedsEveryVehicle) {
  auto fields = std::make_shared<const dsps::Fields>(RawTraceFields());
  PreProcessBolt bolt;
  CapturingCollector out;
  auto send = [&](MicrosT timestamp) {
    bolt.Execute(dsps::Tuple(fields, TraceToRawValues(Report(1, timestamp, 0))), &out);
  };
  send(1'000'000);  // seeds the vehicle
  send(2'000'000);
  EXPECT_EQ(out.emitted.size(), 1u);
  bolt.NewStream();
  send(3'000'000);  // seeds it again: no delta across the boundary
  EXPECT_EQ(out.emitted.size(), 1u);
  send(4'000'000);
  EXPECT_EQ(out.emitted.size(), 2u);
}

TEST(RunBoundaryTest, EsperNewStreamDropsBusWindowsAndKeepsThresholds) {
  auto config = std::make_shared<EsperBoltConfig>();
  config->rules_per_task = {{{"delay", R"(
      @Trigger(bus)
      SELECT bd.area_leaf AS location, avg(bd2.delay) AS value
      FROM bus.std:lastevent() as bd,
           bus.std:groupwin(area_leaf).win:length(2) as bd2,
           threshold_delay.std:unique(location, hour, day) as thr
      WHERE bd.area_leaf = bd2.area_leaf and bd.hour = thr.hour and
            bd.date_type = thr.day and bd.area_leaf = thr.location
      GROUP BY bd2.area_leaf
      HAVING avg(bd2.delay) > avg(thr.value))"}}};
  config->preload = [](cep::Engine* engine, int) {
    engine->SendEvent(engine->NewEvent(ThresholdEventTypeName("delay"))
                          .Set("location", int64_t{7})
                          .Set("hour", int64_t{8})
                          .Set("day", "weekday")
                          .Set("value", 100.0)
                          .Build());
  };
  EsperBolt bolt(config);
  bolt.Prepare({"esper", 0, 1});
  auto fields = std::make_shared<const dsps::Fields>(EnrichedFields({}));
  CapturingCollector out;
  auto send = [&](MicrosT timestamp, double delay) {
    bolt.Execute(dsps::Tuple(fields, TraceToEnrichedValues(Report(1, timestamp, delay))),
                 &out);
  };
  send(1, 300.0);
  ASSERT_EQ(out.emitted.size(), 1u);

  bolt.NewStream();
  auto retained = [&](const std::string& type) {
    size_t n = 0;
    (*bolt.engine()->GetStatement("delay"))
        ->ForEachRetained(type, [&n](const cep::EventPtr&) { ++n; });
    return n;
  };
  EXPECT_EQ(retained("bus"), 0u);
  EXPECT_EQ(retained(ThresholdEventTypeName("delay")), 1u);
  // A fresh window: 10 alone stays under 100 (with the 300 kept, the
  // average would be 155 and fire).
  send(2, 10.0);
  EXPECT_EQ(out.emitted.size(), 1u);
  send(3, 250.0);  // {10, 250}: 130 > 100, the kept threshold still joins
  EXPECT_EQ(out.emitted.size(), 2u);
}

// ---------------------------------------------------------------------------
// Per-input metadata of detections under the local runtime
// ---------------------------------------------------------------------------

/// What the runtime attached to one tuple, keyed by the bus timestamp the
/// tuple carries (unique per input here).
struct TupleMeta {
  MicrosT spout_time = 0;
  dsps::TuplePriority priority = dsps::TuplePriority::kNormal;
  uint64_t trace_id = 0;
  bool operator==(const TupleMeta&) const = default;
};

struct MetaLog {
  Mutex mutex;
  std::map<int64_t, TupleMeta> by_timestamp;
};

/// Emits `count` enriched reports, one per NextTuple, cycling through the
/// three priorities. Each call returns only once the system clock has moved
/// past the time the runtime stamped it with, so every input gets its own
/// spout time.
class MixedPrioritySpout : public dsps::Spout {
 public:
  explicit MixedPrioritySpout(int count) : count_(count) {}
  bool NextTuple(dsps::Collector* collector) override {
    if (next_ >= count_) return false;
    const MicrosT stamped = SystemClock::Get()->NowMicros();
    static constexpr dsps::TuplePriority kCycle[] = {
        dsps::TuplePriority::kHigh, dsps::TuplePriority::kLow,
        dsps::TuplePriority::kNormal};
    const int i = next_++;
    collector->EmitPrioritized(
        kCycle[i % 3], TraceToEnrichedValues(Report(i % 5, 1000 + i, i)));
    while (SystemClock::Get()->NowMicros() <= stamped) {
    }
    return next_ < count_;
  }

 private:
  int count_;
  int next_ = 0;
};

/// Records each input's metadata under the timestamp in field `ts_field`.
class MetaRecorder : public dsps::Bolt {
 public:
  MetaRecorder(std::shared_ptr<MetaLog> log, int ts_field)
      : log_(std::move(log)), ts_field_(ts_field) {}
  void Execute(const dsps::Tuple& input, dsps::Collector*) override {
    MutexLock lock(log_->mutex);
    log_->by_timestamp[input.Get(ts_field_).AsInt()] =
        TupleMeta{input.spout_time(), input.priority(), input.trace_id()};
  }

 private:
  std::shared_ptr<MetaLog> log_;
  int ts_field_;
};

TEST(EsperBoltRuntimeTest, EachDetectionCarriesTheMetadataOfTheInputThatFiredIt) {
  // The spout's outbox hands the Esper bolt blocks of up to emit_batch
  // tuples with mixed priorities and distinct spout times. A detection must
  // inherit its own input's metadata, not that of its block's first tuple.
  static constexpr int kInputs = 120;
  for (double sample_rate : {0.0, 1.0}) {
    auto config = std::make_shared<EsperBoltConfig>();
    config->rules_per_task = {{{"every", R"(
        @Trigger(bus)
        SELECT bd.area_leaf AS location, bd.delay AS value,
               bd.timestamp AS timestamp
        FROM bus.std:lastevent() as bd)"}}};
    auto inputs = std::make_shared<MetaLog>();
    auto detections = std::make_shared<MetaLog>();
    dsps::TopologyBuilder builder;
    builder.SetSpout("s",
                     [] { return std::make_unique<MixedPrioritySpout>(kInputs); },
                     EnrichedFields({}));
    builder.SetBolt("tap",
                    [inputs] { return std::make_unique<MetaRecorder>(inputs, 0); },
                    dsps::Fields({}))
        .ShuffleGrouping("s");
    builder.SetBolt("esper",
                    [config] { return std::make_unique<EsperBolt>(config); },
                    DetectionFields())
        .ShuffleGrouping("s");
    builder.SetBolt("sink",
                    [detections] {
                      return std::make_unique<MetaRecorder>(detections, 5);
                    },
                    dsps::Fields({}))
        .ShuffleGrouping("esper");
    auto topology = builder.Build();
    ASSERT_TRUE(topology.ok());

    dsps::LocalRuntime::Options options;
    options.emit_batch = 16;
    options.enable_tracing = sample_rate > 0.0;
    options.trace_sample_rate = sample_rate;
    dsps::LocalRuntime runtime(std::move(*topology), options);
    ASSERT_TRUE(runtime.Start().ok());
    runtime.AwaitCompletion();
    runtime.Stop();

    MutexLock in_lock(inputs->mutex);
    MutexLock out_lock(detections->mutex);
    ASSERT_EQ(inputs->by_timestamp.size(), static_cast<size_t>(kInputs));
    ASSERT_EQ(detections->by_timestamp.size(), static_cast<size_t>(kInputs));
    std::set<MicrosT> spout_times;
    for (const auto& [ts, meta] : detections->by_timestamp) {
      auto it = inputs->by_timestamp.find(ts);
      ASSERT_NE(it, inputs->by_timestamp.end()) << "timestamp " << ts;
      EXPECT_EQ(meta.spout_time, it->second.spout_time) << "timestamp " << ts;
      EXPECT_EQ(meta.priority, it->second.priority) << "timestamp " << ts;
      EXPECT_EQ(meta.trace_id, it->second.trace_id) << "timestamp " << ts;
      if (sample_rate > 0.0) {
        EXPECT_NE(meta.trace_id, 0u) << "timestamp " << ts;
      }
      spout_times.insert(meta.spout_time);
    }
    EXPECT_EQ(spout_times.size(), static_cast<size_t>(kInputs));
  }
}

}  // namespace
}  // namespace traffic
}  // namespace insight
