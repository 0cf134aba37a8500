// System benchmark of the Figure-8 traffic management system: one cycle.
//
// A cycle runs the real core::TrafficManagementSystem of one workload:
// Initialize(), several Run() calls (the multi-threaded topology, closed
// loop: one BusReaderSpout executor replays stored traces, throttled only by
// backpressure), then one dynamic-thresholds refresh (and, for dynamic_day,
// more Run() calls after it). perfbench/run.py starts one process per cycle, so each
// cycle's peak RSS is its own, and reports medians over cycles.
//
// A single-threaded replay of the same traces through the same bolt classes
// (the "chain") is the reference for the output checks (--reference). With
// --trace 1 the chain runs twice, untraced and traced; the traced pass
// records one span per bolt call, and the set-up steps of Initialize() are
// re-run one by one through the same public functions, so each layer gets
// its own self time.
//
//   perfbench_tms --workload city_morning --seed 1 --trace 0 [--reference]
//       [--quick] [--spans FILE]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/allocation.h"
#include "core/partitioning.h"
#include "core/retrieval.h"
#include "core/rule_template.h"
#include "core/system.h"
#include "geo/bus_stops.h"
#include "geo/quadtree.h"
#include "model/latency_model.h"
#include "storage/table_store.h"
#include "traffic/bolts.h"
#include "traffic/generator.h"

namespace {

using insight::core::TrafficManagementSystem;
using insight::dsps::Tuple;
using insight::dsps::Value;
using Clock = std::chrono::steady_clock;
using Config = TrafficManagementSystem::Config;

// Pipeline detections may differ from the single-threaded chain's, because
// shuffle groupings reorder tuples into order-sensitive length windows.
// Unloaded, the pipeline stored 0.82-1.33x the chain's count over 30
// generated cities per workload; on a host busy with other work, reordering
// grows and one city reached 1.63x. The band catches output lost or
// invented wholesale; the window-1 rules are checked exactly (see
// OrderFreeDetections).
constexpr double kDetectionBandLow = 1.0 / 3.0;
constexpr double kDetectionBandHigh = 3.0;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  Config config;
  /// Run() calls per cycle, before and after the refresh. Each is one
  /// throughput sample and the cycle reports its best: other work on a
  /// shared host only ever slows a Run(), and which executor threads share
  /// a core differs from one Run() to the next (same traces: 21k-34k
  /// traces/s on city_morning, 4 vCPUs). Every Run() after the first
  /// partitions with the rates the earlier ones observed (the paper's
  /// Start-Up Optimization).
  int runs_before_refresh = 6;
  int runs_after_refresh = 0;
};

bool MakeWorkload(const std::string& name, uint64_t seed, bool quick,
                  Workload* out) {
  using insight::core::MakeRule;
  using insight::core::Table6Rules;
  Config& c = out->config;
  c.generator.seed = seed;
  c.generator.incidents_per_hour = 3.0;
  c.retrieval_options.s = 2.0;
  c.num_esper_engines = 6;
  if (name == "city_morning") {
    // examples/city_monitoring, with the stream window widened.
    c.generator.num_buses = 150;
    c.generator.num_lines = 20;
    c.generator.start_hour = 7;
    c.generator.end_hour = 13;
    c.max_traces = quick ? 3000 : 12000;
    c.bootstrap_traces = quick ? 3000 : 8000;
    c.rules = {
        MakeRule("delay_areas", "delay", "area_leaf", 10),
        MakeRule("speed_areas", "speed", "area_leaf", 10),
        MakeRule("actual_delay_areas", "actual_delay", "area_leaf", 10),
        MakeRule("delay_stops", "delay", "bus_stop", 10),
        MakeRule("speed_stops", "speed", "bus_stop", 10),
    };
  } else if (name == "all_rules") {
    // Section 5.5's "all the rules": Table 6 at windows 1, 10 and 100.
    c.generator.num_buses = 60;
    c.generator.num_lines = 3;
    c.generator.stops_per_line = 8;
    c.generator.start_hour = 7;
    c.generator.end_hour = 19;
    c.generator.incidents_per_hour = 10.0;
    c.stop_report_samples = 1000;
    c.max_traces = quick ? 2000 : 30000;
    c.bootstrap_traces = quick ? 3000 : 8000;
    for (size_t window : {1, 10, 100}) {
      for (auto& rule : Table6Rules(window)) c.rules.push_back(rule);
    }
  } else if (name == "dynamic_day") {
    // A long bootstrap history (06:00 to about 20:00), short streams.
    c.generator.num_buses = 12;
    c.generator.num_lines = 6;
    c.generator.start_hour = 6;
    c.generator.end_hour = 27;
    c.max_traces = quick ? 1500 : 4000;
    c.bootstrap_traces = quick ? 8000 : 30000;
    c.rules = {
        MakeRule("delay_areas", "delay", "area_leaf", 10),
        MakeRule("speed_areas", "speed", "area_leaf", 10),
        MakeRule("delay_stops", "delay", "bus_stop", 10),
        MakeRule("actual_delay_stops", "actual_delay", "bus_stop", 10),
    };
    out->runs_before_refresh = 3;
    out->runs_after_refresh = 3;
  } else {
    return false;
  }
  if (quick) c.stop_report_samples = std::min<size_t>(c.stop_report_samples, 1000);
  return true;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span log; a disabled tracer records nothing and reads no clock.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t trace_id;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name, uint64_t trace_id, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, trace_id, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end = Clock::now();
  }
  uint64_t NewTrace() { return ++last_trace_; }

  /// Durations in microseconds of every span with this name.
  std::vector<double> DurationsMicros(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(Seconds(s.start, s.end) * 1e6);
      }
    }
    return out;
  }

  /// Self time per span name: duration minus the time covered by children.
  std::map<std::string, std::pair<size_t, double>> SelfTimes() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<size_t>(s.parent)] += Seconds(s.start, s.end);
      }
    }
    std::map<std::string, std::pair<size_t, double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& entry = out[spans_[i].name];
      entry.first += 1;
      entry.second += Seconds(spans_[i].start, spans_[i].end) - child_time[i];
    }
    return out;
  }

  /// One CSV line per span: span, parent, trace id, name, start/end in ns
  /// since the first span.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "span,parent,trace_id,name,start_ns,end_ns\n";
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    auto ns = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.parent << ',' << s.trace_id << ',' << s.name << ','
          << ns(s.start) << ',' << ns(s.end) << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  uint64_t last_trace_ = 0;
  std::vector<Span> spans_;
};

/// Times `fn` under a span and returns its wall time in seconds.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, uint64_t trace_id, int parent,
             Fn&& fn) {
  int span = tracer->Begin(name, trace_id, parent);
  auto start = Clock::now();
  fn();
  auto end = Clock::now();
  tracer->End(span);
  return Seconds(start, end);
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

struct Checks {
  bool ok = true;
  void Expect(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Names of the rules whose windows hold a single event. Their detections
/// depend on each tuple alone, not on the order an engine receives tuples
/// in, so the pipeline must store exactly the chain's.
std::set<std::string> OrderFreeRules(const Config& config) {
  std::set<std::string> names;
  for (const auto& rule : config.rules) {
    if (rule.window_length == 1) names.insert(rule.name);
  }
  return names;
}

/// The detections of `rules` among the first `rows` rows of the events
/// table, one string per row, sorted.
std::vector<std::string> OrderFreeDetections(const insight::storage::TableStore& store,
                                             const std::set<std::string>& rules,
                                             size_t rows) {
  std::vector<std::string> out;
  if (rules.empty()) return out;
  auto table = store.SelectAll(insight::traffic::EventsStorerBolt::kTableName);
  if (!table.ok()) return out;
  const int rule_column = table->ColumnIndex("rule");
  rows = std::min(rows, table->rows.size());
  for (size_t i = 0; i < rows; ++i) {
    const auto& row = table->rows[i];
    if (!rules.count(row[static_cast<size_t>(rule_column)].AsString())) continue;
    std::string line;
    for (const auto& value : row) line += value.ToString() + "|";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Single-threaded chain: the Figure-8 bolts called in order on one thread,
// wired as TrafficManagementSystem::Run() wires them.
// ---------------------------------------------------------------------------

class CaptureCollector : public insight::dsps::Collector {
 public:
  struct Emission {
    int task;  // -1 for plain Emit
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

template <typename T>
std::shared_ptr<const T> Borrow(const T& object) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &object);
}

struct ChainResult {
  size_t traces = 0;
  size_t esper_tuples = 0;
  size_t matches = 0;
  size_t detections = 0;
  size_t statements = 0;
  size_t fast_path_statements = 0;
  std::vector<std::string> order_free;  // see OrderFreeDetections
  double wall_s = 0.0;
  double allocate_s = 0.0;
  double preload_s = 0.0;
};

/// Replays `traces` through the bolt chain. Mirrors Run(): Algorithm 2
/// allocation, Algorithm 1 partitioning of each grouping over the system's
/// rate estimates, one retrieval setup per grouping, an observing router.
insight::Result<ChainResult> RunChain(TrafficManagementSystem* system,
                                      const Config& config,
                                      const std::vector<insight::traffic::BusTrace>& traces,
                                      Tracer* tracer) {
  namespace core = insight::core;
  namespace traffic = insight::traffic;
  ChainResult result;
  const auto& groupings = system->groupings();
  const uint64_t setup_trace = tracer->NewTrace();
  const int setup_root = tracer->Begin("chain.setup", setup_trace, -1);

  // Allocation and routing (Run(): Allocate + BuildRouter).
  core::AllocationResult allocation;
  std::shared_ptr<core::SpatialRouter> router;
  insight::Status status;
  result.allocate_s = Timed(tracer, "core.allocate", setup_trace, setup_root, [&] {
    insight::model::LatencyModel model = insight::model::LatencyModel::Default();
    core::RulesAllocator allocator(&model);
    auto allocated = allocator.Allocate(groupings, config.num_esper_engines);
    if (!allocated.ok()) {
      status = allocated.status();
      return;
    }
    allocation = *allocated;
    std::vector<core::SpatialRouter::GroupingRoute> routes;
    int task_base = 0;
    for (size_t g = 0; g < groupings.size(); ++g) {
      int engines = allocation.engines_per_grouping[g];
      const bool is_stops = groupings[g].name == "bus_stops";
      auto assignment = core::PartitionRegions(
          (is_stops ? system->stop_rates() : system->area_rates()).Estimates(),
          engines);
      if (!assignment.ok()) {
        status = assignment.status();
        return;
      }
      core::SpatialRouter::GroupingRoute route;
      route.location_field = is_stops ? "bus_stop" : "area_leaf";
      for (const auto& [region, engine] : *assignment) {
        route.region_to_engine[region] = task_base + engine;
      }
      for (int e = 0; e < engines; ++e) route.fallback_engines.push_back(task_base + e);
      routes.push_back(std::move(route));
      task_base += engines;
    }
    router = std::make_shared<core::SpatialRouter>(std::move(routes));
  });
  if (!status.ok()) return status;

  // Esper configuration (Run(): retrieval setup per grouping, task ranges).
  auto esper_config = std::make_shared<traffic::EsperBoltConfig>();
  esper_config->rules_per_task.resize(static_cast<size_t>(config.num_esper_engines));
  auto setups = std::make_shared<std::vector<core::RetrievalSetup>>();
  std::vector<int> task_to_grouping(static_cast<size_t>(config.num_esper_engines), 0);
  int task_base = 0;
  for (size_t g = 0; g < groupings.size(); ++g) {
    auto setup = core::BuildRetrieval(config.retrieval, groupings[g].rules,
                                      system->store(), config.retrieval_options);
    if (!setup.ok()) return setup.status();
    for (int e = 0; e < allocation.engines_per_grouping[g]; ++e) {
      esper_config->rules_per_task[static_cast<size_t>(task_base + e)] = setup->rules;
      task_to_grouping[static_cast<size_t>(task_base + e)] = static_cast<int>(g);
    }
    task_base += allocation.engines_per_grouping[g];
    setups->push_back(std::move(*setup));
  }
  esper_config->preload = [setups, task_to_grouping](insight::cep::Engine* engine,
                                                     int task) {
    const auto& setup = (*setups)[static_cast<size_t>(task_to_grouping[static_cast<size_t>(task)])];
    if (setup.preload) setup.preload(engine, task);
  };
  esper_config->before_send = [setups, task_to_grouping](
                                  insight::cep::Engine* engine, int task,
                                  const Tuple& tuple) {
    const auto& setup = (*setups)[static_cast<size_t>(task_to_grouping[static_cast<size_t>(task)])];
    if (setup.before_send) setup.before_send(engine, task, tuple);
  };

  // The splitter feeds rate trackers as Run()'s observing router does; local
  // trackers keep the system's estimates for its next Run() untouched.
  core::RegionRateTracker area_rates;
  core::RegionRateTracker stop_rates;
  auto observing_router = [router, &area_rates, &stop_rates](
                              const Tuple& tuple, std::vector<int>* tasks) {
    router->Route(tuple, tasks);
    auto area = tuple.GetByField("area_leaf");
    if (area.ok() && area->AsInt() >= 0) area_rates.Observe(area->AsInt());
    auto stop = tuple.GetByField("bus_stop");
    if (stop.ok() && stop->AsInt() >= 0) stop_rates.Observe(stop->AsInt());
  };

  traffic::PreProcessBolt preprocess(config.generator.weekend);
  traffic::AreaTrackerBolt area_tracker(Borrow(system->quadtree()), {});
  traffic::BusStopsTrackerBolt stops_tracker(Borrow(system->bus_stops()));
  traffic::SplitterBolt splitter(observing_router);
  std::vector<std::unique_ptr<traffic::EsperBolt>> esper;
  insight::storage::TableStore store;
  traffic::EventsStorerBolt storer(&store);
  result.preload_s = Timed(tracer, "core.preload", setup_trace, setup_root, [&] {
    for (int task = 0; task < config.num_esper_engines; ++task) {
      esper.push_back(std::make_unique<traffic::EsperBolt>(esper_config));
      esper.back()->Prepare({"esper", task, config.num_esper_engines});
    }
  });
  storer.Prepare({"eventsStorer", 0, 1});
  tracer->End(setup_root);

  auto raw_fields = std::make_shared<const insight::dsps::Fields>(traffic::RawTraceFields());
  auto pre_fields = std::make_shared<const insight::dsps::Fields>(traffic::PreProcessedFields());
  auto area_fields = std::make_shared<const insight::dsps::Fields>(traffic::AreaFields({}));
  auto enriched_fields = std::make_shared<const insight::dsps::Fields>(traffic::EnrichedFields({}));
  auto detection_fields = std::make_shared<const insight::dsps::Fields>(traffic::DetectionFields());

  CaptureCollector cap;
  CaptureCollector detections;
  // One bolt call under a span, its emissions captured in `into`. A bolt
  // that supports it gets a one-tuple ExecuteBatch, as the runtime hands it
  // drained blocks, so a batch fast path shows in cep.fast_path_share.
  auto step = [&](const char* name, uint64_t trace, int root,
                  insight::dsps::Bolt* bolt, const Tuple& input,
                  CaptureCollector* into) {
    into->out.clear();
    int span = tracer->Begin(name, trace, root);
    if (bolt->SupportsExecuteBatch()) {
      bolt->ExecuteBatch(&input, 1, into);
    } else {
      bolt->Execute(input, into);
    }
    tracer->End(span);
  };

  auto start = Clock::now();
  for (const traffic::BusTrace& trace : traces) {
    const uint64_t trace_id = tracer->enabled() ? tracer->NewTrace() : 0;
    const int root = tracer->Begin("chain.trace", trace_id, -1);
    step("traffic.preprocess", trace_id, root, &preprocess,
         Tuple(raw_fields, traffic::TraceToRawValues(trace)), &cap);
    if (!cap.out.empty()) {
      step("geo.area_locate", trace_id, root, &area_tracker,
           Tuple(pre_fields, std::move(cap.out[0].values)), &cap);
      step("geo.stop_locate", trace_id, root, &stops_tracker,
           Tuple(area_fields, std::move(cap.out[0].values)), &cap);
      step("core.route", trace_id, root, &splitter,
           Tuple(enriched_fields, std::move(cap.out[0].values)), &cap);
      for (CaptureCollector::Emission& routed : cap.out) {
        ++result.esper_tuples;
        step("cep.esper", trace_id, root, esper[static_cast<size_t>(routed.task)].get(),
             Tuple(enriched_fields, std::move(routed.values)), &detections);
        result.matches += detections.out.size();
        for (CaptureCollector::Emission& detection : detections.out) {
          CaptureCollector none;
          step("storage.insert", trace_id, root, &storer,
               Tuple(detection_fields, std::move(detection.values)), &none);
        }
      }
    }
    tracer->End(root);
  }
  result.wall_s = Seconds(start, Clock::now());
  result.traces = traces.size();

  auto stored = store.RowCount(traffic::EventsStorerBolt::kTableName);
  result.detections = stored.ok() ? *stored : 0;
  result.order_free = OrderFreeDetections(store, OrderFreeRules(config), result.detections);
  for (const auto& bolt : esper) {
    for (const std::string& name : bolt->engine()->StatementNames()) {
      auto stmt = bolt->engine()->GetStatement(name);
      if (!stmt.ok()) continue;
      ++result.statements;
      if ((*stmt)->UsingBatchFastPath()) ++result.fast_path_statements;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Set-up steps of Initialize(), one span each (traced runs only).
// ---------------------------------------------------------------------------

struct SetupSteps {
  double quadtree_build_s = 0.0;
  double generate_s = 0.0;
  double stop_index_build_s = 0.0;
  double enrich_s = 0.0;
  double append_s = 0.0;
  double cycle_s = 0.0;
  double Total() const {
    return quadtree_build_s + generate_s + stop_index_build_s + enrich_s +
           append_s + cycle_s;
  }
};

insight::Result<SetupSteps> RunSetupSteps(const Config& config, Tracer* tracer) {
  namespace geo = insight::geo;
  namespace traffic = insight::traffic;
  SetupSteps steps;
  const uint64_t trace = tracer->NewTrace();
  const int root = tracer->Begin("setup.steps", trace, -1);

  std::unique_ptr<geo::RegionQuadtree> quadtree;
  steps.quadtree_build_s = Timed(tracer, "geo.quadtree_build", trace, root, [&] {
    quadtree = std::make_unique<geo::RegionQuadtree>(geo::BuildDublinQuadtree(
        config.generator.seed, config.quadtree_seed_points, config.quadtree));
  });
  std::vector<geo::StopReport> reports;
  steps.generate_s += Timed(tracer, "traffic.generate", trace, root, [&] {
    traffic::TraceGenerator sampler(config.generator);
    reports = sampler.CollectStopReports(config.stop_report_samples);
  });
  geo::BusStopIndex stops;
  steps.stop_index_build_s = Timed(tracer, "geo.stop_index_build", trace, root,
                                   [&] { stops.Build(reports); });
  std::vector<traffic::BusTrace> bootstrap;
  steps.generate_s += Timed(tracer, "traffic.generate", trace, root, [&] {
    traffic::TraceGenerator::Options options = config.generator;
    options.seed = config.generator.seed + 1;  // as Initialize(): another day
    traffic::TraceGenerator generator(options);
    bootstrap = generator.GenerateAll(config.bootstrap_traces);
  });
  steps.enrich_s = Timed(tracer, "core.enrich", trace, root, [&] {
    insight::core::EnrichTraces(&bootstrap, *quadtree, stops);
  });
  insight::dfs::MiniDfs dfs;
  insight::storage::TableStore store;
  insight::core::DynamicRuleManager manager(
      &dfs, &store, insight::core::DynamicRuleManager::Config{});
  insight::Status status;
  steps.append_s = Timed(tracer, "dfs.append", trace, root,
                         [&] { status = manager.AppendHistory(bootstrap); });
  if (!status.ok()) return status;
  insight::Result<size_t> rows = size_t{0};
  steps.cycle_s = Timed(tracer, "batch.cycle", trace, root,
                        [&] { rows = manager.RunBatchCycle(); });
  if (!rows.ok()) return rows.status();
  tracer->End(root);
  return steps;
}

// ---------------------------------------------------------------------------
// One cycle of the system: Initialize, Run() calls, refresh, Run() calls.
// ---------------------------------------------------------------------------

struct CycleResult {
  double setup_s = 0.0;
  std::vector<double> traces_per_s;  // one per Run()
  double run_s = 0.0;                // all Run() calls
  double refresh_s = 0.0;
  size_t expected_esper = 0;
  size_t executed_esper = 0;
  size_t first_run_detections = 0;
  std::vector<std::string> first_run_order_free;  // when a chain runs
  TrafficManagementSystem::RunReport first_report;
  std::optional<ChainResult> chain;  // untraced reference, when asked for
  std::optional<ChainResult> traced_chain;
};

struct CycleOptions {
  bool reference_chain = false;
  bool traced_chain = false;
};

insight::Result<CycleResult> RunCycle(const Workload& workload,
                                      const CycleOptions& options,
                                      Tracer* tracer, Checks* checks) {
  const Config& config = workload.config;
  CycleResult out;
  TrafficManagementSystem system(config);
  const uint64_t trace = tracer->NewTrace();

  insight::Status init;
  out.setup_s = Timed(tracer, "system.initialize", trace, -1,
                      [&] { init = system.Initialize(); });
  if (!init.ok()) return init;
  const size_t groupings = system.groupings().size();

  // The run's traces, enriched as the topology enriches them: their count
  // times the number of groupings is the esper tuple count Run() must reach.
  insight::traffic::TraceGenerator generator(config.generator);
  std::vector<insight::traffic::BusTrace> stream =
      generator.GenerateAll(config.max_traces);
  std::vector<insight::traffic::BusTrace> enriched = stream;

  size_t stored_before = 0;
  auto run_once = [&]() -> insight::Status {
    insight::Result<TrafficManagementSystem::RunReport> report =
        insight::Status::Internal("not run");
    const double wall =
        Timed(tracer, "system.run", trace, -1, [&] { report = system.Run(); });
    if (!report.ok()) return report.status();
    const std::string run = "run " + std::to_string(out.traces_per_s.size());
    out.run_s += wall;
    out.traces_per_s.push_back(static_cast<double>(report->traces_fed) / wall);
    checks->Expect(report->traces_fed == config.max_traces,
                   run + " fed " + std::to_string(report->traces_fed) + " traces, " +
                       std::to_string(config.max_traces) + " requested");
    out.executed_esper += report->esper.executed;
    const size_t detections = report->detections - stored_before;
    stored_before = report->detections;
    checks->Expect(detections > 0, run + " stored no detections");
    if (out.traces_per_s.size() == 1) {
      out.first_report = *report;
      out.first_run_detections = detections;
      if (options.reference_chain || options.traced_chain) {
        out.first_run_order_free =
            OrderFreeDetections(*system.store(), OrderFreeRules(config), detections);
      }
    }
    return insight::Status::OK();
  };

  INSIGHT_RETURN_NOT_OK(run_once());

  // Reference chain on the same traces and thresholds as the first run.
  if (options.reference_chain) {
    Tracer off(false);
    INSIGHT_ASSIGN_OR_RETURN(ChainResult chain, RunChain(&system, config, stream, &off));
    out.chain = chain;
  }
  if (options.traced_chain) {
    INSIGHT_ASSIGN_OR_RETURN(ChainResult chain, RunChain(&system, config, stream, tracer));
    out.traced_chain = chain;
  }

  for (int i = 1; i < workload.runs_before_refresh; ++i) {
    INSIGHT_RETURN_NOT_OK(run_once());
  }

  // Refresh: enrich the run's traces, append them to the history, recompute
  // the statistics.
  const int refresh = tracer->Begin("system.refresh", trace, -1);
  insight::Result<size_t> rows = size_t{0};
  insight::Status append;
  auto refresh_start = Clock::now();
  Timed(tracer, "core.enrich", trace, refresh, [&] {
    insight::core::EnrichTraces(&enriched, system.quadtree(), system.bus_stops());
  });
  Timed(tracer, "dfs.append", trace, refresh,
        [&] { append = system.dynamic_manager()->AppendHistory(enriched); });
  Timed(tracer, "batch.cycle", trace, refresh,
        [&] { rows = system.dynamic_manager()->RunBatchCycle(); });
  out.refresh_s = Seconds(refresh_start, Clock::now());
  tracer->End(refresh);
  if (!append.ok()) return append;
  if (!rows.ok()) return rows.status();
  checks->Expect(*rows > 0, "refresh loaded no statistics rows");

  for (int i = 0; i < workload.runs_after_refresh; ++i) {
    INSIGHT_RETURN_NOT_OK(run_once());
  }
  out.expected_esper = out.traces_per_s.size() * enriched.size() * groupings;
  checks->Expect(out.executed_esper == out.expected_esper,
                 "esper executed " + std::to_string(out.executed_esper) + " of " +
                     std::to_string(out.expected_esper) + " expected tuples");
  return out;
}

void CheckAgainstChain(const CycleResult& cycle, const ChainResult& chain,
                       Checks* checks) {
  checks->Expect(chain.esper_tuples == cycle.first_report.esper.executed,
                 "drift: chain sent " + std::to_string(chain.esper_tuples) +
                     " esper tuples, Run() executed " +
                     std::to_string(cycle.first_report.esper.executed));
  checks->Expect(chain.detections > 0, "chain stored no detections");
  checks->Expect(cycle.first_run_order_free == chain.order_free,
                 "window-1 rules: pipeline stored " +
                     std::to_string(cycle.first_run_order_free.size()) +
                     " detections, chain " + std::to_string(chain.order_free.size()) +
                     ", or the rows differ");
  const double ratio = chain.detections > 0
                           ? static_cast<double>(cycle.first_run_detections) /
                                 static_cast<double>(chain.detections)
                           : 0.0;
  checks->Expect(ratio >= kDetectionBandLow && ratio <= kDetectionBandHigh,
                 "pipeline stored " + std::to_string(cycle.first_run_detections) +
                     " detections, chain " + std::to_string(chain.detections));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool quick = false;
  bool reference = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--quick") {
      args->quick = true;
      continue;
    }
    if (flag == "--reference") {
      args->reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  insight::SetLogLevel(insight::LogLevel::kError);
  Args args;
  Workload workload;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeWorkload(args.workload, args.seed, args.quick, &workload)) {
    std::fprintf(stderr,
                 "usage: perfbench_tms --workload city_morning|all_rules|dynamic_day "
                 "--seed N --trace 0|1 [--reference] [--quick] [--spans FILE]\n");
    return 2;
  }
  const Config& config = workload.config;
  std::printf("workload %s seed %llu: %zu traces/run, %zu bootstrap, %zu rules, "
              "%d engines, %d+%d runs around the refresh\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              config.max_traces, config.bootstrap_traces, config.rules.size(),
              config.num_esper_engines, workload.runs_before_refresh,
              workload.runs_after_refresh);

  Tracer tracer(args.trace);
  Checks checks;
  SetupSteps steps;
  if (args.trace) {
    auto s = RunSetupSteps(config, &tracer);
    if (!s.ok()) {
      std::printf("set-up steps failed: %s\n", s.status().ToString().c_str());
      return 1;
    }
    steps = *s;
  }
  CycleOptions options;
  options.reference_chain = args.reference || args.trace;
  options.traced_chain = args.trace;
  auto result = RunCycle(workload, options, &tracer, &checks);
  if (!result.ok()) {
    std::printf("cycle failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const CycleResult& cycle = *result;
  if (cycle.chain) CheckAgainstChain(cycle, *cycle.chain, &checks);
  std::printf("setup %.3f s, %zu runs %.3f s, refresh %.3f s, detections %zu",
              cycle.setup_s, cycle.traces_per_s.size(), cycle.run_s, cycle.refresh_s,
              cycle.first_run_detections);
  if (cycle.chain) {
    std::printf(" (chain %zu in %.3f s; window-1 rules %zu, equal: %s)",
                cycle.chain->detections, cycle.chain->wall_s, cycle.chain->order_free.size(),
                cycle.first_run_order_free == cycle.chain->order_free ? "yes" : "no");
  }
  std::printf("\nruns (traces/s):");
  for (double tps : cycle.traces_per_s) std::printf(" %.0f", tps);
  std::printf("\n");

  const uint64_t attempted = cycle.expected_esper;
  const uint64_t failed = cycle.expected_esper > cycle.executed_esper
                              ? cycle.expected_esper - cycle.executed_esper
                              : cycle.executed_esper - cycle.expected_esper;
  const double failed_share =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  std::printf("failed_share %.6f (%llu of %llu esper tuples lost)\n", failed_share,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  if (!args.trace) {
    const double best_tps =
        *std::max_element(cycle.traces_per_s.begin(), cycle.traces_per_s.end());
    PrintResult(checks.ok, attempted, failed,
                {{"traces_per_s", best_tps, "traces/s"},
                 {"setup_s", cycle.setup_s, "s"},
                 {"refresh_s", cycle.refresh_s, "s"},
                 {"peak_rss_mb", PeakRssMb(), "MB"}});
    return checks.ok ? 0 : 1;
  }

  // ---- per-layer report (traced run) ----
  const ChainResult& plain = *cycle.chain;
  const ChainResult& traced = *cycle.traced_chain;
  const auto self = tracer.SelfTimes();
  auto self_s = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.second;
  };

  const char* kStages[] = {"traffic.preprocess", "geo.area_locate", "geo.stop_locate",
                           "core.route",         "cep.esper",       "storage.insert"};
  const double chain_rest = self_s("chain.trace");
  double chain_total = chain_rest;
  for (const char* stage : kStages) chain_total += self_s(stage);
  std::printf("\nchain self time per stage (traced pass, %.3f s):\n", traced.wall_s);
  std::string top_stage;
  double top = -1.0;
  for (const char* stage : kStages) {
    const double s = self_s(stage);
    std::printf("  %-22s %8zu calls %9.3f s %6.1f%%\n", stage,
                self.count(stage) ? self.at(stage).first : 0, s, 100.0 * s / chain_total);
    if (s > top) {
      top = s;
      top_stage = stage;
    }
  }
  std::printf("  %-22s %14s %9.3f s %6.1f%%\n", "(unattributed)", "", chain_rest,
              100.0 * chain_rest / chain_total);

  const double unattributed = cycle.setup_s - steps.Total();
  std::printf("\nset-up steps against Initialize() %.3f s:\n", cycle.setup_s);
  const std::pair<const char*, double> step_rows[] = {
      {"geo.quadtree_build", steps.quadtree_build_s},
      {"traffic.generate", steps.generate_s},
      {"geo.stop_index_build", steps.stop_index_build_s},
      {"core.enrich", steps.enrich_s},
      {"dfs.append", steps.append_s},
      {"batch.cycle", steps.cycle_s},
      {"(unattributed)", unattributed}};
  for (const auto& [name, value] : step_rows) {
    std::printf("  %-22s %9.3f s %6.1f%%\n", name, value, 100.0 * value / cycle.setup_s);
  }

  // The contrast each workload was chosen for (reported, not enforced: a
  // change that fixes the dominant layer is expected to flip it).
  if (args.workload == "dynamic_day") {
    const double batch_enrich = steps.cycle_s + steps.enrich_s;
    const double rest =
        std::max({cycle.run_s, cycle.refresh_s, steps.quadtree_build_s, steps.generate_s,
                  steps.stop_index_build_s, steps.append_s});
    std::printf("contrast: batch.cycle + core.enrich = %.3f s vs next largest "
                "component %.3f s: %s\n",
                batch_enrich, rest, batch_enrich > rest ? "holds" : "does not hold");
  } else {
    const char* expected = args.workload == "city_morning" ? "geo.stop_locate" : "cep.esper";
    std::printf("contrast: largest per-tuple stage is %s (expected %s): %s\n",
                top_stage.c_str(), expected,
                top_stage == expected ? "holds" : "does not hold");
  }

  auto p = [&](const char* name, double pct) {
    return Percentile(tracer.DurationsMicros(name), pct);
  };
  const double pipeline_tps = static_cast<double>(cycle.first_report.traces_fed) /
                              cycle.first_report.wall_seconds;
  const std::vector<Metric> metrics = {
      {"geo.stop_locate_us.p50", p("geo.stop_locate", 50), "us"},
      {"geo.stop_locate_us.p99", p("geo.stop_locate", 99), "us"},
      {"geo.area_locate_us.p50", p("geo.area_locate", 50), "us"},
      {"geo.area_locate_us.p99", p("geo.area_locate", 99), "us"},
      {"geo.stop_index_build_s", steps.stop_index_build_s, "s"},
      {"geo.quadtree_build_s", steps.quadtree_build_s, "s"},
      {"traffic.preprocess_us.p50", p("traffic.preprocess", 50), "us"},
      {"traffic.preprocess_us.p99", p("traffic.preprocess", 99), "us"},
      {"traffic.generate_s", steps.generate_s, "s"},
      {"core.route_us.p50", p("core.route", 50), "us"},
      {"core.route_us.p99", p("core.route", 99), "us"},
      {"core.enrich_s", steps.enrich_s, "s"},
      {"core.allocate_ms", traced.allocate_s * 1e3, "ms"},
      {"core.preload_ms", traced.preload_s * 1e3, "ms"},
      {"cep.esper_us.p50", p("cep.esper", 50), "us"},
      {"cep.esper_us.p99", p("cep.esper", 99), "us"},
      {"cep.matches_per_tuple",
       static_cast<double>(traced.matches) / static_cast<double>(traced.esper_tuples),
       "ratio"},
      {"cep.fast_path_share",
       static_cast<double>(traced.fast_path_statements) /
           static_cast<double>(traced.statements),
       "ratio"},
      {"storage.insert_us.p50", p("storage.insert", 50), "us"},
      {"storage.insert_us.p99", p("storage.insert", 99), "us"},
      {"batch.cycle_s", steps.cycle_s, "s"},
      {"dfs.append_s", steps.append_s, "s"},
      {"dsps.esper_execute_p50_us",
       cycle.first_report.esper.latency_histogram.Percentile(50), "us"},
      {"dsps.esper_execute_p99_us",
       cycle.first_report.esper.latency_histogram.Percentile(99), "us"},
      {"dsps.parallel_speedup",
       pipeline_tps / (static_cast<double>(plain.traces) / plain.wall_s), "ratio"},
      {"setup.unattributed_s", unattributed, "s"},
      {"chain.unattributed_s", chain_rest, "s"},
      {"trace.overhead_ratio", traced.wall_s / plain.wall_s, "ratio"},
      {"failed_share", failed_share, "ratio"},
  };
  if (!args.spans.empty() && !tracer.Write(args.spans)) {
    std::printf("could not write spans to %s\n", args.spans.c_str());
    checks.ok = false;
  }
  std::printf("\n");
  PrintResult(checks.ok, attempted, failed, metrics);
  return checks.ok ? 0 : 1;
}
