// City monitoring: the full Figure 3 / Figure 8 system end to end.
//
// Builds the Dublin quadtree, derives canonical bus stops with DENCLUE,
// bootstraps per-location statistics through the MapReduce batch layer,
// partitions and allocates the Table 6 rules onto multiple Esper engines
// (Algorithms 1 and 2), streams a synthetic morning of bus traffic through
// the Storm-like topology, and reports what was detected.
//
//   ./city_monitoring

#include <cstdio>

#include "common/logging.h"
#include "core/system.h"

using insight::core::MakeRule;
using insight::core::TrafficManagementSystem;

int main() {
  insight::SetLogLevel(insight::LogLevel::kInfo);

  TrafficManagementSystem::Config config;
  config.generator.num_buses = 150;
  config.generator.num_lines = 20;
  config.generator.start_hour = 7;
  config.generator.end_hour = 11;
  config.generator.incidents_per_hour = 3.0;
  config.generator.seed = 2026;
  config.max_traces = 30000;
  config.bootstrap_traces = 30000;
  config.rules = {
      MakeRule("delay_areas", "delay", "area_leaf", 10),
      MakeRule("speed_areas", "speed", "area_leaf", 10),
      MakeRule("actual_delay_areas", "actual_delay", "area_leaf", 10),
      MakeRule("delay_stops", "delay", "bus_stop", 10),
      MakeRule("speed_stops", "speed", "bus_stop", 10),
  };
  config.num_esper_engines = 6;
  config.retrieval_options.s = 2.0;  // alert at mean + 2 stdev

  TrafficManagementSystem system(config);
  std::printf("initializing: quadtree, bus stops, batch bootstrap...\n");
  auto st = system.Initialize();
  if (!st.ok()) {
    std::fprintf(stderr, "init failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("quadtree: %zu regions, max layer %d\n",
              system.quadtree().num_regions(), system.quadtree().max_layer());
  std::printf("canonical bus stops: %zu\n", system.bus_stops().stops().size());
  for (const std::string& table : system.store()->TableNames()) {
    auto rows = system.store()->RowCount(table);
    std::printf("  %-28s %6zu rows\n", table.c_str(), rows.ok() ? *rows : 0);
  }

  std::printf("\nstreaming %zu traces through the topology...\n",
              config.max_traces);
  auto report = system.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("done in %.2f s\n", report->wall_seconds);
  std::printf("engines per grouping:");
  for (int engines : report->engines_per_grouping) std::printf(" %d", engines);
  std::printf("\nesper bolt: %llu tuples, avg %.1f us/tuple, %.0f tuples/s\n",
              static_cast<unsigned long long>(report->esper.executed),
              report->esper.avg_latency_micros, report->esper_throughput);
  std::printf("detections stored: %zu\n", report->detections);
  std::printf("executor utilisation (CPU s per wall s):\n");
  for (const auto& executor : report->utilisation) {
    std::printf("  %-16s #%d %5.2f\n", executor.component.c_str(),
                executor.executor_index, executor.utilisation);
  }

  // Show a few stored detections (the events an operator would see).
  auto events = system.store()->SelectAll("detected_events");
  if (events.ok()) {
    size_t show = std::min<size_t>(events->rows.size(), 8);
    std::printf("\nfirst %zu detections:\n", show);
    for (size_t i = 0; i < show; ++i) {
      const auto& row = events->rows[i];
      std::printf("  rule=%-24s attr=%-12s location=%-6lld value=%8.2f "
                  "threshold=%8.2f\n",
                  row[0].AsString().c_str(), row[1].AsString().c_str(),
                  static_cast<long long>(row[2].AsInt()), row[3].AsDouble(),
                  row[4].AsDouble());
    }
  }
  return 0;
}
