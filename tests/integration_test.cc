#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "common/strings.h"
#include "core/system.h"

namespace insight {
namespace core {
namespace {

traffic::TraceGenerator::Options SmallCity() {
  traffic::TraceGenerator::Options options;
  options.num_buses = 60;
  options.num_lines = 10;
  options.stops_per_line = 12;
  options.start_hour = 7;
  options.end_hour = 10;
  options.seed = 7;
  options.incidents_per_hour = 4.0;  // make sure anomalies exist
  return options;
}

TrafficManagementSystem::Config SmallConfig() {
  TrafficManagementSystem::Config config;
  config.generator = SmallCity();
  config.max_traces = 6000;
  config.bootstrap_traces = 8000;
  config.stop_report_samples = 800;
  config.rules = {
      MakeRule("delay_areas", "delay", "area_leaf", 10),
      MakeRule("speed_areas", "speed", "area_leaf", 10),
      MakeRule("delay_stops", "delay", "bus_stop", 10),
  };
  config.num_esper_engines = 4;
  config.retrieval = ThresholdRetrieval::kThresholdStream;
  config.retrieval_options.s = 1.5;
  return config;
}

TEST(IntegrationTest, FullPipelineDetectsEventsWithThresholdStream) {
  TrafficManagementSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());

  // The batch bootstrap must have produced statistics tables for both
  // location namespaces.
  EXPECT_TRUE(system.store()->HasTable("statistics_delay"));
  EXPECT_TRUE(system.store()->HasTable("statistics_delay_stop"));
  EXPECT_TRUE(system.store()->HasTable("statistics_speed"));
  auto rows = system.store()->RowCount("statistics_delay");
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(*rows, 10u);

  auto report = system.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->traces_fed, 6000u);
  // Every trace flows through the splitter to at least one engine; the
  // esper bolt must have processed a comparable volume.
  EXPECT_GT(report->esper.executed, 4000u);
  // With injected incidents and s=1.5, some anomalies must fire.
  EXPECT_GT(report->detections, 0u);
  // Two groupings (areas + stops) split the four engines.
  ASSERT_EQ(report->engines_per_grouping.size(), 2u);
  EXPECT_EQ(report->engines_per_grouping[0] + report->engines_per_grouping[1],
            4);
  EXPECT_GE(report->engines_per_grouping[0], 1);
  EXPECT_GE(report->engines_per_grouping[1], 1);
}

TEST(IntegrationTest, SecondRunRepartitionsWithObservedRates) {
  TrafficManagementSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  EXPECT_EQ(system.area_rates().observed_total(), 0u);
  auto first = system.Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The splitter fed the trackers during the run.
  EXPECT_GT(system.area_rates().observed_total(), 1000u);
  EXPECT_GT(system.stop_rates().observed_total(), 0u);
  // A new rule can be submitted and the system re-optimizes and runs again.
  ASSERT_TRUE(
      system.AddRules({MakeRule("speed_stops2", "speed", "bus_stop", 10)}).ok());
  auto second = system.Run();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->esper.executed, 4000u);
  // Invalid rules are rejected up front.
  RuleTemplate bad;
  bad.name = "broken";
  EXPECT_FALSE(system.AddRules({bad}).ok());
}

TEST(IntegrationTest, StaticRetrievalRunsWithoutStatistics) {
  auto config = SmallConfig();
  config.retrieval = ThresholdRetrieval::kStatic;
  config.retrieval_options.static_threshold = 120.0;
  TrafficManagementSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  auto report = system.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->esper.executed, 4000u);
}

TEST(IntegrationTest, JoinWithDatabaseStrategyEndToEnd) {
  auto config = SmallConfig();
  config.retrieval = ThresholdRetrieval::kJoinWithDatabase;
  config.max_traces = 3000;
  TrafficManagementSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  size_t queries_before = system.store()->query_count();
  auto report = system.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->esper.executed, 2000u);
  // The strategy's signature: a storage query per tuple per lookup.
  EXPECT_GT(system.store()->query_count() - queries_before,
            report->esper.executed);
  EXPECT_GT(report->detections, 0u);
}

TEST(IntegrationTest, DynamicRefreshReplacesThresholds) {
  auto config = SmallConfig();
  TrafficManagementSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());

  // Re-run the batch cycle after appending more history: the row count can
  // grow (new locations) but the cycle must succeed and refresh must send
  // threshold events into a fresh engine.
  auto cycle = system.dynamic_manager()->RunBatchCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_GT(*cycle, 0u);
  EXPECT_EQ(system.dynamic_manager()->cycles_completed(), 2u);

  cep::Engine engine;
  ASSERT_TRUE(engine.RegisterEventType("bus", traffic::BusEventFields({})).ok());
  for (const char* attr : {"delay", "speed", "actual_delay", "congestion"}) {
    for (const char* suffix : {"", "_stop"}) {
      ASSERT_TRUE(engine
                      .RegisterEventType(
                          traffic::ThresholdEventTypeName(
                              std::string(attr) + suffix),
                          traffic::ThresholdEventFields())
                      .ok());
    }
  }
  auto sent = system.dynamic_manager()->RefreshEngine(
      &engine, SmallConfig().rules);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  EXPECT_GT(*sent, 0u);
  // Refresh again: std:unique means the engine retains the same number of
  // thresholds, not double.
  auto again = system.dynamic_manager()->RefreshEngine(&engine,
                                                       SmallConfig().rules);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*sent, *again);
}

// ---------------------------------------------------------------------------
// The long-lived topology: one runtime across Run() calls
// ---------------------------------------------------------------------------

/// Every stage before CEP at one executor: each engine receives its tuples
/// in one deterministic order, so detections do not depend on scheduling.
TrafficManagementSystem::Config SerialConfig() {
  auto config = SmallConfig();
  config.max_traces = 4000;
  config.rules.clear();
  for (size_t window : {1, 10, 100}) {
    for (const RuleTemplate& rule : Table6Rules(window)) config.rules.push_back(rule);
  }
  config.num_esper_engines = 6;
  config.enrich_executors = 1;
  return config;
}

/// Rows of the events table from row `from` on, one string per row, sorted.
std::vector<std::string> DetectionsSince(const storage::TableStore& store, size_t from) {
  std::vector<std::string> out;
  auto table = store.SelectAll(traffic::EventsStorerBolt::kTableName);
  if (!table.ok()) return out;
  for (size_t i = from; i < table->rows.size(); ++i) {
    std::string line;
    for (const storage::Value& value : table->rows[i]) line += value.ToString() + "|";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ThresholdLine(int64_t location, int64_t hour, const std::string& day,
                          double value) {
  return StrFormat("%lld|%lld|%s|%.17g", static_cast<long long>(location),
                   static_cast<long long>(hour), day.c_str(), value);
}

/// Per Esper task, "statement/attribute key" -> the rows of that
/// statement's threshold window, sorted.
using EngineWindows = std::vector<std::map<std::string, std::vector<std::string>>>;

EngineWindows HeldThresholds(TrafficManagementSystem* system,
                             const std::map<std::string, double>& keys, int tasks) {
  EngineWindows out(static_cast<size_t>(tasks));
  Mutex mutex;
  Status status = system->VisitEngines([&](int task, const cep::Engine& engine) {
    std::map<std::string, std::vector<std::string>> windows;
    for (const std::string& name : engine.StatementNames()) {
      const cep::Statement* stmt = *engine.GetStatement(name);
      for (const auto& [key, signed_s] : keys) {
        const std::string type = traffic::ThresholdEventTypeName(key);
        if (!stmt->ConsumesType(type)) continue;
        std::vector<std::string>& rows = windows[name + "/" + key];
        stmt->ForEachRetained(type, [&rows](const cep::EventPtr& e) {
          // ThresholdEventFields(): location, hour, day, value.
          rows.push_back(ThresholdLine(e->Get(0).AsInt(), e->Get(1).AsInt(),
                                       e->Get(2).AsString(), e->Get(3).AsDouble()));
        });
        std::sort(rows.begin(), rows.end());
      }
    }
    MutexLock lock(mutex);
    out[static_cast<size_t>(task)] = std::move(windows);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

/// What a fresh preload scoped by the system's current routing gives each
/// statement: its key's rows, queried now, for the locations routed to its
/// task, the last row per (location, hour, day).
EngineWindows FreshScopedPreload(TrafficManagementSystem* system,
                                 const std::map<std::string, double>& keys,
                                 const EngineWindows& layout) {
  auto router = system->router();
  EngineWindows out(layout.size());
  for (size_t task = 0; task < layout.size(); ++task) {
    for (const auto& [window, rows] : layout[task]) {
      const std::string key = window.substr(window.find('/') + 1);
      const bool stops = key.size() > 5 && key.substr(key.size() - 5) == "_stop";
      size_t grouping = 0;
      const std::string field = stops ? "bus_stop" : "area_leaf";
      while (router->routes()[grouping].location_field != field) ++grouping;
      auto fresh = storage::QueryThresholds(*system->store(), key, keys.at(key));
      EXPECT_TRUE(fresh.ok());
      std::map<std::tuple<int64_t, int64_t, std::string>, double> slots;
      for (const storage::ThresholdRow& row : *fresh) {
        if (router->EngineFor(grouping, row.location) != static_cast<int>(task)) continue;
        slots[{row.location, row.hour, row.date_type}] = row.threshold;
      }
      std::vector<std::string>& expected = out[task][window];
      for (const auto& [slot, value] : slots) {
        const auto& [location, hour, day] = slot;
        expected.push_back(ThresholdLine(location, hour, day, value));
      }
      std::sort(expected.begin(), expected.end());
    }
  }
  return out;
}

TEST(LongLivedSystemTest, LaterRunsStoreAFreshSystemsFirstRunDetections) {
  TrafficManagementSystem fresh(SerialConfig());
  ASSERT_TRUE(fresh.Initialize().ok());
  auto first = fresh.Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::vector<std::string> expected = DetectionsSince(*fresh.store(), 0);
  ASSERT_GT(expected.size(), 100u);

  TrafficManagementSystem system(SerialConfig());
  ASSERT_TRUE(system.Initialize().ok());
  size_t stored = 0;
  for (int run = 1; run <= 3; ++run) {
    auto report = system.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->build_seconds > 0.0, run == 1) << "run " << run;
    // Every run is a fresh stream over the same traces: reset bus windows
    // and vehicle deltas, whichever engine the re-partitioning picked.
    EXPECT_EQ(DetectionsSince(*system.store(), stored), expected) << "run " << run;
    stored = report->detections;
  }
}

/// The first Run()'s detections of the window-1 rules, as DetectionsSince
/// gives them. Window-1 rules do not depend on the order the engines see
/// tuples.
std::vector<std::string> Window1Detections(TrafficManagementSystem::Config config) {
  std::set<std::string> rules;
  for (const RuleTemplate& rule : config.rules) {
    if (rule.window_length == 1) rules.insert(rule.name);
  }
  TrafficManagementSystem system(std::move(config));
  EXPECT_TRUE(system.Initialize().ok());
  auto report = system.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  std::vector<std::string> out;
  for (std::string& line : DetectionsSince(*system.store(), 0)) {
    // The rule name is the row's first column.
    if (rules.count(line.substr(0, line.find('|')))) out.push_back(std::move(line));
  }
  return out;
}

TEST(LongLivedSystemTest, ChainedEnrichmentKeepsWindow1Detections) {
  // Three chained enrichment executors detect exactly what one does.
  const std::vector<std::string> serial = Window1Detections(SerialConfig());
  ASSERT_GT(serial.size(), 10u);
  auto parallel = SerialConfig();
  parallel.enrich_executors = 3;
  EXPECT_EQ(Window1Detections(parallel), serial);
}

TEST(LongLivedSystemTest, RefreshedThresholdsEqualAFreshScopedPreload) {
  auto config = SmallConfig();
  TrafficManagementSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  EXPECT_EQ(system.VisitEngines([](int, const cep::Engine&) {}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(system.Run().ok());
  const auto keys = ThresholdKeys(config.rules, config.retrieval_options.s);
  const EngineWindows before = HeldThresholds(&system, keys, config.num_esper_engines);
  ASSERT_EQ(before, FreshScopedPreload(&system, keys, before));

  // Another day of history moves the statistics.
  traffic::TraceGenerator::Options day = config.generator;
  day.seed += 11;
  std::vector<traffic::BusTrace> history = traffic::TraceGenerator(day).GenerateAll(8000);
  EnrichTraces(&history, system.quadtree(), system.bus_stops());
  ASSERT_TRUE(system.dynamic_manager()->AppendHistory(history).ok());
  ASSERT_TRUE(system.dynamic_manager()->RunBatchCycle().ok());

  auto report = system.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->build_seconds, 0.0);  // updated in place
  const EngineWindows after = HeldThresholds(&system, keys, config.num_esper_engines);
  EXPECT_EQ(after, FreshScopedPreload(&system, keys, after));
  EXPECT_NE(after, before);
  size_t rows = 0;
  for (const auto& windows : after) {
    for (const auto& [window, held] : windows) rows += held.size();
  }
  EXPECT_GT(rows, 100u);
}

TEST(LongLivedSystemTest, ConsecutiveRunsReportPerRunDeltas) {
  TrafficManagementSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  std::vector<TrafficManagementSystem::RunReport> reports;
  std::vector<std::shared_ptr<const SpatialRouter>> router_after;
  for (int run = 0; run < 3; ++run) {
    auto report = system.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    reports.push_back(*report);
    router_after.push_back(system.router());
  }
  for (const auto& report : reports) {
    EXPECT_EQ(report.traces_fed, 6000u);
    EXPECT_EQ(report.esper.executed, reports[0].esper.executed);
    EXPECT_EQ(report.esper.latency_histogram.total(), report.esper.executed);
    EXPECT_GT(report.wall_seconds, 0.0);
  }
  EXPECT_GT(reports[0].esper.executed, 4000u);
  EXPECT_GT(reports[0].build_seconds, 0.0);
  EXPECT_EQ(reports[2].build_seconds, 0.0);
  EXPECT_EQ(reports[0].boundary_seconds, 0.0);
  EXPECT_GT(reports[2].boundary_seconds, 0.0);
  // Runs 1 and 2 streamed the same traces, so run 3 partitions as run 2
  // did: it keeps the router and sends the engines no threshold rows.
  EXPECT_EQ(router_after[2], router_after[1]);
  EXPECT_EQ(reports[2].threshold_rows_sent, 0u);
  // One utilisation per executor; the chained enrichment stages run on
  // preProcess's executors and have none of their own.
  for (const auto& report : reports) {
    std::map<std::string, int> executors;
    for (const auto& executor : report.utilisation) {
      ++executors[executor.component];
      EXPECT_GE(executor.utilisation, 0.0) << executor.component;
      EXPECT_LE(executor.utilisation, 1.05) << executor.component;
    }
    EXPECT_EQ(executors["busReader"], 1);
    EXPECT_EQ(executors["preProcess"], 3);
    EXPECT_GE(executors["esper"], 1);
    EXPECT_EQ(executors["eventsStorer"], 1);
    EXPECT_EQ(executors.count("splitter"), 0u);
  }
}

TEST(LongLivedSystemTest, IdleTopologyUsesNoCpuBetweenRuns) {
  TrafficManagementSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  ASSERT_TRUE(system.Run().ok());
  auto cpu_seconds = [] {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  };
  const double before = cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(cpu_seconds() - before, 0.020);
  ASSERT_TRUE(system.Run().ok());  // and it still runs afterwards
}

TEST(LongLivedSystemTest, AddRulesRebuildsTheTopology) {
  TrafficManagementSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  auto first = system.Run();
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->build_seconds, 0.0);
  auto second = system.Run();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->build_seconds, 0.0);
  ASSERT_TRUE(system.AddRules({MakeRule("speed_stops", "speed", "bus_stop", 10)}).ok());
  auto third = system.Run();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_GT(third->build_seconds, 0.0);
  EXPECT_EQ(third->esper.executed, first->esper.executed);
  // The rebuilt engines run the new rule.
  std::atomic<int> with_new_rule{0};
  ASSERT_TRUE(system
                  .VisitEngines([&with_new_rule](int, const cep::Engine& engine) {
                    if (engine.GetStatement("speed_stops").ok()) ++with_new_rule;
                  })
                  .ok());
  EXPECT_GT(with_new_rule.load(), 0);
}

TEST(LongLivedSystemTest, ObservedTotalCountsEveryRoutedRegion) {
  auto config = SmallConfig();
  TrafficManagementSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  // The tuples the splitter routes: the stream as the bolts enrich it.
  std::vector<traffic::BusTrace> routed =
      traffic::TraceGenerator(config.generator).GenerateAll(config.max_traces);
  EnrichTraces(&routed, system.quadtree(), system.bus_stops());
  uint64_t areas = 0;
  uint64_t stops = 0;
  for (const traffic::BusTrace& trace : routed) {
    if (trace.area_leaf >= 0) ++areas;
    if (trace.bus_stop >= 0) ++stops;
  }
  ASSERT_GT(stops, 0u);
  for (uint64_t run = 1; run <= 2; ++run) {
    ASSERT_TRUE(system.Run().ok());
    EXPECT_EQ(system.area_rates().observed_total(), run * areas);
    EXPECT_EQ(system.stop_rates().observed_total(), run * stops);
  }
}

TEST(LongLivedSystemTest, QueryThresholdsMatchesTheSelectPathOnSeededHistories) {
  // The Listing-2 query as the generic SELECT DISTINCT computed it before
  // the typed scan (distinct on %g strings; equal here, since no two
  // thresholds of a seeded history agree to six digits).
  auto select_path = [](const storage::TableStore& store, const std::string& key,
                        double s) {
    std::vector<storage::TableStore::Projection> projections;
    projections.push_back(
        {"thresholdLocation",
         [s](const storage::QueryResult& schema, const storage::RowValues& row) {
           return storage::Value(
               row[static_cast<size_t>(schema.ColumnIndex("attr_mean"))].AsDouble() +
               s * row[static_cast<size_t>(schema.ColumnIndex("attr_stdv"))].AsDouble());
         }});
    projections.push_back({"currentHour", nullptr});
    projections.push_back({"dateType", nullptr});
    projections.push_back({"areaId", nullptr});
    auto result = store.Select(storage::StatisticsTableName(key), projections, nullptr,
                               /*distinct=*/true);
    std::vector<std::string> rows;
    for (const storage::RowValues& row : result->rows) {
      rows.push_back(ThresholdLine(row[3].AsInt(), row[1].AsInt(), row[2].AsString(),
                                   row[0].AsDouble()));
    }
    return rows;
  };
  for (uint64_t seed : {1, 2, 3}) {
    auto config = SmallConfig();
    config.generator.seed = seed;
    TrafficManagementSystem system(config);
    ASSERT_TRUE(system.Initialize().ok());
    size_t compared = 0;
    for (const char* key : {"delay", "speed_stop", "actual_delay", "congestion_stop"}) {
      for (double s : {1.5, -1.5}) {
        auto typed = storage::QueryThresholds(*system.store(), key, s);
        ASSERT_TRUE(typed.ok());
        std::vector<std::string> rows;
        for (const storage::ThresholdRow& row : *typed) {
          rows.push_back(
              ThresholdLine(row.location, row.hour, row.date_type, row.threshold));
        }
        EXPECT_EQ(rows, select_path(*system.store(), key, s)) << key << " seed " << seed;
        compared += rows.size();
      }
    }
    EXPECT_GT(compared, 1000u);
  }
}

}  // namespace
}  // namespace core
}  // namespace insight
