// Microbenchmarks of the CEP engine. Two modes:
//
//  - Default: google-benchmark microbenchmarks (cost vs window length,
//    threshold-stream size, rule count). Not a paper figure; these calibrate
//    and guard the per-tuple costs the DES-based figure benches consume.
//
//  - `bench_cep_engine BENCH_cep.json`: per-event cost of SendEvent with an
//    instrumented allocator, for two hot rule shapes (a single-source filter
//    and the shape-A incremental aggregation of the detection rules) and for
//    the engine shape the system runs on all_rules (15 Table-6 statements
//    over shared sources, thresholds preloaded), written in the same schema
//    as BENCH_hotpath.json. Exit code gates CI: every scenario must be
//    allocation-free in steady state.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <utility>

#include "bench_util.h"

// ---------------------------------------------------------------------------
// Instrumented global allocator (counts every new/new[]; JSON mode only
// reads it, the google-benchmark mode just pays one relaxed increment).
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace insight {
namespace bench {
namespace {

void BM_SendEventWindow(benchmark::State& state) {
  size_t window = static_cast<size_t>(state.range(0));
  LoadedEngine loaded = MakeLoadedEngine(
      {core::MakeRule("r", "delay", "area_leaf", window)}, 32);
  Rng rng(7);
  uint64_t i = 0;
  for (auto _ : state) {
    loaded.engine->SendEvent(
        SyntheticBusEvent(loaded.engine.get(), &rng, 32, i++));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SendEventWindow)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

void BM_SendEventThresholds(benchmark::State& state) {
  size_t locations = static_cast<size_t>(state.range(0));
  LoadedEngine loaded = MakeLoadedEngine(
      {core::MakeRule("r", "delay", "area_leaf", 100)}, locations);
  Rng rng(7);
  uint64_t i = 0;
  for (auto _ : state) {
    loaded.engine->SendEvent(
        SyntheticBusEvent(loaded.engine.get(), &rng, locations, i++));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["thresholds"] =
      static_cast<double>(loaded.thresholds_per_attribute);
}
BENCHMARK(BM_SendEventThresholds)->Arg(8)->Arg(64)->Arg(256);

void BM_SendEventRuleCount(benchmark::State& state) {
  int rules = static_cast<int>(state.range(0));
  std::vector<core::RuleTemplate> templates;
  for (int r = 0; r < rules; ++r) {
    templates.push_back(core::MakeRule("r" + std::to_string(r), "delay",
                                       "area_leaf", 100));
  }
  LoadedEngine loaded = MakeLoadedEngine(templates, 32);
  Rng rng(7);
  uint64_t i = 0;
  for (auto _ : state) {
    loaded.engine->SendEvent(
        SyntheticBusEvent(loaded.engine.get(), &rng, 32, i++));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SendEventRuleCount)->Arg(1)->Arg(2)->Arg(5)->Arg(10);

void BM_EplParse(benchmark::State& state) {
  auto epl = core::MakeRule("r", "delay", "area_leaf", 100).ToEpl();
  INSIGHT_CHECK(epl.ok());
  for (auto _ : state) {
    auto def = cep::ParseEpl(*epl);
    benchmark::DoNotOptimize(def);
  }
}
BENCHMARK(BM_EplParse);

}  // namespace

// ---------------------------------------------------------------------------
// JSON mode: per-event SendEvent cost on two hot rule shapes.
// ---------------------------------------------------------------------------

namespace {

/// Pre-generated random fields: the Gaussian draws are the expensive part of
/// synthesizing an event, so the JSON mode hoists them out of the timed loop
/// (it should measure the engine, not the RNG).
struct RandomFields {
  std::vector<double> lon, lat, delay, speed, actual_delay;
  std::vector<uint8_t> congestion;
};

RandomFields MakeRandomFields(size_t n, uint64_t seed) {
  RandomFields f;
  f.lon.reserve(n);
  f.lat.reserve(n);
  f.delay.reserve(n);
  f.speed.reserve(n);
  f.actual_delay.reserve(n);
  f.congestion.reserve(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    f.lon.push_back(-6.26 + rng.Gaussian(0.0, 0.01));
    f.lat.push_back(53.35 + rng.Gaussian(0.0, 0.01));
    f.delay.push_back(rng.Gaussian(90.0, 40.0));
    f.congestion.push_back(rng.Bernoulli(0.2) ? 1 : 0);
    f.speed.push_back(rng.Gaussian(22.0, 6.0));
    f.actual_delay.push_back(rng.Gaussian(0.0, 5.0));
  }
  return f;
}

/// Fills a recycled row buffer positionally in BusEventFields({}) order.
void FillBusRow(std::vector<cep::Value>& out, const RandomFields& f,
                size_t num_locations, uint64_t index) {
  using cep::Value;
  size_t r = static_cast<size_t>(index) % f.lon.size();
  int64_t location = static_cast<int64_t>(index % num_locations);
  out.clear();
  out.emplace_back(static_cast<int64_t>(index * 1000));            // timestamp
  out.emplace_back(static_cast<int64_t>(index % 67));              // line
  out.emplace_back((index & 1) == 0);                              // direction
  out.emplace_back(f.lon[r]);                                      // lon
  out.emplace_back(f.lat[r]);                                      // lat
  out.emplace_back(f.delay[r]);                                    // delay
  out.emplace_back(f.congestion[r] != 0);                          // congestion
  out.emplace_back(int64_t{-1});                                   // reported_stop
  out.emplace_back(static_cast<int64_t>(index % 911));             // vehicle
  out.emplace_back(f.speed[r]);                                    // speed
  out.emplace_back(f.actual_delay[r]);                             // actual_delay
  out.emplace_back(static_cast<int64_t>((index / 500) % 24));      // hour
  out.emplace_back("weekday");                                     // date_type
  out.emplace_back(location);                                      // area_leaf
  out.emplace_back(location);                                      // bus_stop
}

/// A single-source filter rule: one lastevent source, steady state never
/// matches.
const char* kFilterRule =
    "@Trigger(bus)\n"
    "SELECT bd.area_leaf AS location, bd.speed AS value\n"
    "FROM bus.std:lastevent() as bd\n"
    "WHERE bd.speed < -1000.0 OR (bd.delay > 1e12 AND bd.congestion)";

/// The canonical detection-rule pair (Table 6 / Section 4.1 shape), both on
/// the shape-A incremental aggregation plan.
const char* kAggRules[] = {
    "@Trigger(bus)\n"
    "SELECT bd.area_leaf AS location, avg(bd2.speed) AS value,\n"
    "       2.0 AS threshold, 'speed' AS attribute, bd.timestamp AS timestamp\n"
    "FROM bus.std:lastevent() as bd,\n"
    "     bus.std:groupwin(area_leaf).win:length(100) as bd2\n"
    "WHERE bd.area_leaf = bd2.area_leaf\n"
    "GROUP BY bd2.area_leaf\n"
    "HAVING avg(bd2.speed) < 2.0",
    "@Trigger(bus)\n"
    "SELECT bd.area_leaf AS location, avg(bd2.delay) AS value,\n"
    "       1e9 AS threshold, 'delay' AS attribute, bd.timestamp AS timestamp\n"
    "FROM bus.std:lastevent() as bd,\n"
    "     bus.std:groupwin(area_leaf).win:length(100) as bd2\n"
    "WHERE bd.area_leaf = bd2.area_leaf\n"
    "GROUP BY bd2.area_leaf\n"
    "HAVING avg(bd2.delay) > 1e9",
};

std::unique_ptr<cep::Engine> MakeJsonEngine(
    const std::vector<const char*>& rules) {
  auto engine = std::make_unique<cep::Engine>();
  INSIGHT_CHECK(
      engine->RegisterEventType("bus", traffic::BusEventFields({})).ok());
  int rule_id = 0;
  for (const char* epl : rules) {
    auto stmt = engine->AddStatement(epl, "rule-" + std::to_string(rule_id++));
    INSIGHT_CHECK(stmt.ok()) << stmt.status().ToString();
  }
  return engine;
}

constexpr size_t kJsonLocations = 32;

/// One all_rules engine: Table 6 at windows 1, 10 and 100 over area_leaf,
/// 15 statements on 8 shared sources, with a threshold per (attribute,
/// location, hour, day). Every threshold is out of reach, so the steady
/// state evaluates every statement (probes, accumulators, HAVING) and never
/// matches, like agg_row.
std::unique_ptr<cep::Engine> MakeTable6Engine() {
  std::vector<core::RuleTemplate> rules;
  for (size_t window : {1, 10, 100}) {
    for (const core::RuleTemplate& rule : core::Table6Rules(window)) {
      if (rule.location_field == "area_leaf") rules.push_back(rule);
    }
  }
  std::unique_ptr<cep::Engine> engine =
      MakeLoadedEngine(rules, /*num_locations=*/0).engine;
  for (const char* attr : {"delay", "actual_delay", "speed", "congestion"}) {
    // speed rules fire below their threshold, the others above.
    const double unreachable = std::strcmp(attr, "speed") == 0 ? -1e9 : 1e9;
    auto type = engine->GetEventType(traffic::ThresholdEventTypeName(attr));
    INSIGHT_CHECK(type.ok());
    for (size_t loc = 0; loc < kJsonLocations; ++loc) {
      for (int64_t hour = 0; hour < 24; ++hour) {
        for (const char* day : {"weekday", "weekend"}) {
          engine->SendEvent(cep::EventBuilder(*type)
                                .Set("location", static_cast<int64_t>(loc))
                                .Set("hour", hour)
                                .Set("day", day)
                                .Set("value", unreachable)
                                .Build());
        }
      }
    }
  }
  INSIGHT_CHECK(engine->GetStats().sources == 8);
  return engine;
}

uint64_t TakeAllocs() {
  return g_allocs.exchange(0, std::memory_order_relaxed);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScenarioResult {
  uint64_t events = 0;
  double events_per_sec = 0.0;
  double ns_per_event = 0.0;
  double allocs_per_event = 0.0;
};

constexpr uint64_t kJsonEvents = 200000;
constexpr uint64_t kWarmupEvents = kJsonLocations * 102;

/// Pooled events through SendEvent, one at a time.
ScenarioResult RunScenario(std::unique_ptr<cep::Engine> engine) {
  cep::EventPool& pool = engine->event_pool();
  auto bus_type = engine->GetEventType("bus");
  INSIGHT_CHECK(bus_type.ok());
  RandomFields fields = MakeRandomFields(1 << 16, 41);
  for (uint64_t i = 0; i < kWarmupEvents; ++i) {
    std::vector<cep::Value> buffer = pool.TakeBuffer();
    FillBusRow(buffer, fields, kJsonLocations, i);
    engine->SendEvent(
        pool.Create(*bus_type, std::move(buffer), static_cast<MicrosT>(i)));
  }

  TakeAllocs();
  double start = NowSeconds();
  for (uint64_t i = 0; i < kJsonEvents; ++i) {
    std::vector<cep::Value> buffer = pool.TakeBuffer();
    FillBusRow(buffer, fields, kJsonLocations, i);
    engine->SendEvent(
        pool.Create(*bus_type, std::move(buffer), static_cast<MicrosT>(i)));
  }
  double elapsed = NowSeconds() - start;
  uint64_t allocs = TakeAllocs();

  ScenarioResult result;
  result.events = kJsonEvents;
  result.events_per_sec = static_cast<double>(kJsonEvents) / elapsed;
  result.ns_per_event = elapsed * 1e9 / static_cast<double>(kJsonEvents);
  result.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(kJsonEvents);
  return result;
}

void PrintScenario(std::FILE* f, const char* name, const ScenarioResult& r,
                   bool last) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"events\": %llu,\n"
               "    \"events_per_sec\": %.1f,\n"
               "    \"ns_per_event\": %.1f,\n"
               "    \"allocs_per_event\": %.4f\n"
               "  }%s\n",
               name, static_cast<unsigned long long>(r.events),
               r.events_per_sec, r.ns_per_event, r.allocs_per_event,
               last ? "" : ",");
}

int JsonMain(const char* out_path) {
  const std::pair<const char*, ScenarioResult> scenarios[] = {
      {"filter_row", RunScenario(MakeJsonEngine({kFilterRule}))},
      {"agg_row", RunScenario(MakeJsonEngine({kAggRules[0], kAggRules[1]}))},
      {"table6_engine", RunScenario(MakeTable6Engine())},
  };

  std::FILE* f = std::fopen(out_path, "w");
  INSIGHT_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f, "{\n");
  bool allocation_free = true;
  for (size_t i = 0; i < std::size(scenarios); ++i) {
    const auto& [name, r] = scenarios[i];
    std::printf("%-14s %9.0f events/s  %7.1f ns/event  %.4f allocs/event\n",
                name, r.events_per_sec, r.ns_per_event, r.allocs_per_event);
    PrintScenario(f, name, r, /*last=*/i + 1 == std::size(scenarios));
    allocation_free = allocation_free && r.allocs_per_event < 0.001;
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  if (!allocation_free) {
    std::printf("WARNING: SendEvent is not allocation-free\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace insight

int main(int argc, char** argv) {
  // `bench_cep_engine <path>.json` runs the allocation-gated SendEvent
  // scenarios and writes the JSON report there; anything else is
  // google-benchmark.
  if (argc > 1) {
    const char* arg = argv[1];
    size_t len = std::strlen(arg);
    if (len > 5 && std::strcmp(arg + len - 5, ".json") == 0) {
      return insight::bench::JsonMain(arg);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
