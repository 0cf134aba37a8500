#include "core/system.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/logging.h"

namespace insight {
namespace core {

namespace {
constexpr double kMicrosPerHour = 3600.0 * 1e6;
}

void EnrichTraces(std::vector<traffic::BusTrace>* traces,
                  const geo::RegionQuadtree& quadtree,
                  const geo::BusStopIndex& stops) {
  struct VehicleState {
    geo::LatLon position;
    double delay = 0.0;
    MicrosT timestamp = 0;
    bool valid = false;
  };
  std::map<int, VehicleState> vehicles;
  std::vector<traffic::BusTrace> kept;
  kept.reserve(traces->size());
  for (traffic::BusTrace& trace : *traces) {
    VehicleState& state = vehicles[trace.vehicle_id];
    // First observation of a vehicle only seeds the state — speed and actual
    // delay are deltas (the PreProcess bolt drops these online too).
    bool first = !state.valid || trace.timestamp <= state.timestamp;
    if (!first) {
      double meters = geo::HaversineMeters(state.position, trace.position);
      double hours =
          static_cast<double>(trace.timestamp - state.timestamp) / kMicrosPerHour;
      trace.speed_kmh = hours > 0 ? meters / 1000.0 / hours : 0.0;
      trace.actual_delay = trace.delay_seconds - state.delay;
    }
    state = {trace.position, trace.delay_seconds, trace.timestamp, true};
    if (first) continue;
    trace.hour =
        static_cast<int>(static_cast<double>(trace.timestamp) / kMicrosPerHour) %
        24;
    trace.area_leaf = quadtree.LocateLeaf(trace.position);
    trace.bus_stop =
        stops.Locate(trace.position, trace.line_id, trace.direction);
    kept.push_back(trace);
  }
  *traces = std::move(kept);
}

std::vector<RegionRate> ComputeRegionRates(
    const std::vector<traffic::BusTrace>& traces, bool by_bus_stop) {
  std::map<int64_t, double> counts;
  for (const traffic::BusTrace& trace : traces) {
    int64_t region = by_bus_stop ? trace.bus_stop : trace.area_leaf;
    if (region >= 0) counts[region] += 1.0;
  }
  std::vector<RegionRate> out;
  out.reserve(counts.size());
  for (const auto& [region, count] : counts) out.push_back({region, count});
  return out;
}

TrafficManagementSystem::TrafficManagementSystem(Config config)
    : config_(std::move(config)) {}

Status TrafficManagementSystem::Initialize() {
  if (initialized_) return Status::FailedPrecondition("already initialized");
  if (config_.rules.empty()) {
    return Status::InvalidArgument("at least one rule required");
  }

  // Spatial indexing (Section 4.1.1).
  auto quadtree = std::make_shared<geo::RegionQuadtree>(geo::BuildDublinQuadtree(
      config_.generator.seed, config_.quadtree_seed_points, config_.quadtree));
  quadtree_ = quadtree;

  // Canonical bus stops (Section 4.1.2) from a sample of stop reports.
  traffic::TraceGenerator stop_sampler(config_.generator);
  auto stops = std::make_shared<geo::BusStopIndex>();
  stops->Build(stop_sampler.CollectStopReports(config_.stop_report_samples));
  bus_stops_ = stops;

  // Bootstrap history + statistics (Section 4.1.3).
  traffic::TraceGenerator::Options bootstrap_options = config_.generator;
  bootstrap_options.seed = config_.generator.seed + 1;  // different day
  traffic::TraceGenerator bootstrap_gen(bootstrap_options);
  std::vector<traffic::BusTrace> bootstrap =
      bootstrap_gen.GenerateAll(config_.bootstrap_traces);
  EnrichTraces(&bootstrap, *quadtree_, *bus_stops_);

  dynamic_ = std::make_unique<DynamicRuleManager>(&dfs_, &store_,
                                                  DynamicRuleManager::Config{});
  INSIGHT_RETURN_NOT_OK(dynamic_->AppendHistory(bootstrap));
  INSIGHT_ASSIGN_OR_RETURN(size_t rows, dynamic_->RunBatchCycle());
  if (rows == 0) {
    return Status::Internal("batch bootstrap produced no statistics");
  }

  // Seed region rates for Algorithm 1.
  area_tracker_.Seed(ComputeRegionRates(bootstrap, /*by_bus_stop=*/false));
  stop_tracker_.Seed(ComputeRegionRates(bootstrap, /*by_bus_stop=*/true));

  INSIGHT_RETURN_NOT_OK(RebuildGroupings());
  initialized_ = true;
  return Status::OK();
}

Status TrafficManagementSystem::RebuildGroupings() {
  // Thresholds per rule: rows per attribute table is a good proxy — use the
  // delay table.
  size_t thresholds = 0;
  auto count = store_.RowCount(storage::StatisticsTableName("delay"));
  if (count.ok()) thresholds = *count;
  double rate = 3000.0;  // nominal offered tuples/sec (full-speed replay)
  groupings_ = GroupRulesByLocation(config_.rules, rate, thresholds);
  if (groupings_.empty()) {
    return Status::InvalidArgument("no groupings derivable from the rules");
  }
  return Status::OK();
}

Status TrafficManagementSystem::AddRules(const std::vector<RuleTemplate>& rules) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize() first");
  }
  for (const RuleTemplate& rule : rules) {
    INSIGHT_RETURN_NOT_OK(rule.ToEpl().status());  // validate early
    config_.rules.push_back(rule);
  }
  return RebuildGroupings();
}

Result<SpatialRouter> TrafficManagementSystem::BuildRouter(
    const AllocationResult& allocation) const {
  std::vector<SpatialRouter::GroupingRoute> routes;
  int task_base = 0;
  for (size_t g = 0; g < groupings_.size(); ++g) {
    int engines = allocation.engines_per_grouping[g];
    const bool is_stops = groupings_[g].name == "bus_stops";
    std::vector<RegionRate> rates =
        (is_stops ? stop_tracker_ : area_tracker_).Estimates();
    INSIGHT_ASSIGN_OR_RETURN(auto assignment, PartitionRegions(rates, engines));

    SpatialRouter::GroupingRoute route;
    route.location_field = is_stops ? "bus_stop" : "area_leaf";
    for (const auto& [region, engine] : assignment) {
      route.region_to_engine[region] = task_base + engine;
    }
    for (int e = 0; e < engines; ++e) route.fallback_engines.push_back(task_base + e);
    routes.push_back(std::move(route));
    task_base += engines;
  }
  return SpatialRouter(std::move(routes));
}

Result<TrafficManagementSystem::RunReport> TrafficManagementSystem::Run() {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize() first");
  }

  // Allocate engines to groupings (Algorithm 2).
  RulesAllocator allocator(&latency_model_);
  INSIGHT_ASSIGN_OR_RETURN(
      AllocationResult allocation,
      allocator.Allocate(groupings_, config_.num_esper_engines));
  INSIGHT_ASSIGN_OR_RETURN(SpatialRouter router, BuildRouter(allocation));
  auto shared_router = std::make_shared<SpatialRouter>(std::move(router));

  // Retrieval setup per grouping; tasks map to groupings by index range.
  auto esper_config = std::make_shared<traffic::EsperBoltConfig>();
  esper_config->layers = {};  // rules use area_leaf / bus_stop
  esper_config->rules_per_task.resize(
      static_cast<size_t>(config_.num_esper_engines));
  std::vector<RetrievalSetup> setups;
  {
    int task_base = 0;
    for (size_t g = 0; g < groupings_.size(); ++g) {
      INSIGHT_ASSIGN_OR_RETURN(
          RetrievalSetup setup,
          BuildRetrieval(config_.retrieval, groupings_[g].rules, &store_,
                         config_.retrieval_options));
      for (int e = 0; e < allocation.engines_per_grouping[g]; ++e) {
        esper_config->rules_per_task[static_cast<size_t>(task_base + e)] =
            setup.rules;
      }
      task_base += allocation.engines_per_grouping[g];
      setups.push_back(std::move(setup));
    }
  }
  // Dispatch preload / before_send to the owning grouping's setup.
  std::vector<int> task_to_grouping(
      static_cast<size_t>(config_.num_esper_engines), 0);
  {
    int task_base = 0;
    for (size_t g = 0; g < groupings_.size(); ++g) {
      for (int e = 0; e < allocation.engines_per_grouping[g]; ++e) {
        task_to_grouping[static_cast<size_t>(task_base + e)] = static_cast<int>(g);
      }
      task_base += allocation.engines_per_grouping[g];
    }
  }
  auto shared_setups = std::make_shared<std::vector<RetrievalSetup>>(
      std::move(setups));
  esper_config->preload = [shared_setups, task_to_grouping](cep::Engine* engine,
                                                            int task) {
    const auto& setup =
        (*shared_setups)[static_cast<size_t>(task_to_grouping[static_cast<size_t>(task)])];
    if (setup.preload) setup.preload(engine, task);
  };
  esper_config->before_send = [shared_setups, task_to_grouping](
                                  cep::Engine* engine, int task,
                                  const dsps::Tuple& tuple) {
    const auto& setup =
        (*shared_setups)[static_cast<size_t>(task_to_grouping[static_cast<size_t>(task)])];
    if (setup.before_send) setup.before_send(engine, task, tuple);
  };

  // Stream dataset for this run.
  traffic::TraceGenerator generator(config_.generator);
  auto traces = std::make_shared<std::vector<traffic::BusTrace>>(
      generator.GenerateAll(config_.max_traces));

  // Figure 8 topology.
  dsps::TopologyBuilder builder;
  builder.SetSpout(
      "busReader",
      [traces] { return std::make_unique<traffic::BusReaderSpout>(traces); },
      traffic::RawTraceFields(), config_.reader_executors);
  builder
      .SetBolt(
          "preProcess",
          [weekend = config_.generator.weekend] {
            return std::make_unique<traffic::PreProcessBolt>(weekend);
          },
          traffic::PreProcessedFields(), config_.preprocess_executors)
      .FieldsGrouping("busReader", {"vehicle"});
  builder
      .SetBolt(
          "areaTracker",
          [quadtree = quadtree_] {
            return std::make_unique<traffic::AreaTrackerBolt>(
                quadtree, std::vector<int>{});
          },
          traffic::AreaFields({}), config_.tracker_executors)
      .ShuffleGrouping("preProcess");
  builder
      .SetBolt(
          "busStopsTracker",
          [stops = bus_stops_] {
            return std::make_unique<traffic::BusStopsTrackerBolt>(stops);
          },
          traffic::EnrichedFields({}), config_.tracker_executors)
      .ShuffleGrouping("areaTracker");
  // The splitter also feeds the rate trackers so the next Run() partitions
  // with observed rates ("incrementally update them while the application
  // runs").
  auto observing_router = [shared_router, this,
                           slots = dsps::FieldSlots({"area_leaf", "bus_stop"})](
                              const dsps::Tuple& tuple, std::vector<int>* tasks) {
    shared_router->Route(tuple, tasks);
    RegionRateTracker* trackers[] = {&area_tracker_, &stop_tracker_};
    for (size_t i = 0; i < 2; ++i) {
      int slot = slots.IndexOf(tuple, i);
      if (slot < 0) continue;
      int64_t region = tuple.Get(static_cast<size_t>(slot)).AsInt();
      if (region >= 0) trackers[i]->Observe(region);
    }
  };
  builder
      .SetBolt(
          "splitter",
          [observing_router] {
            return std::make_unique<traffic::SplitterBolt>(observing_router);
          },
          traffic::EnrichedFields({}), config_.splitter_executors)
      .ShuffleGrouping("busStopsTracker");
  builder
      .SetBolt(
          "esper",
          [esper_config] {
            return std::make_unique<traffic::EsperBolt>(esper_config);
          },
          traffic::DetectionFields(), config_.num_esper_engines,
          config_.num_esper_engines)
      .DirectGrouping("splitter");
  builder
      .SetBolt(
          "eventsStorer",
          [this] { return std::make_unique<traffic::EventsStorerBolt>(&store_); },
          dsps::Fields({}), config_.storer_executors)
      .ShuffleGrouping("esper");

  INSIGHT_ASSIGN_OR_RETURN(dsps::Topology topology, builder.Build());
  dsps::LocalRuntime::Options runtime_options = config_.runtime;
  runtime_options.num_workers = config_.num_workers;
  dsps::LocalRuntime runtime(std::move(topology), runtime_options);

  auto start = std::chrono::steady_clock::now();
  INSIGHT_RETURN_NOT_OK(runtime.Start());
  runtime.AwaitCompletion();
  auto end = std::chrono::steady_clock::now();

  RunReport report;
  report.traces_fed = traces->size();
  report.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  report.esper = runtime.metrics()->Totals("esper");
  if (report.wall_seconds > 0) {
    report.esper_throughput =
        static_cast<double>(report.esper.executed) / report.wall_seconds;
  }
  auto detections = store_.RowCount(traffic::EventsStorerBolt::kTableName);
  report.detections = detections.ok() ? *detections : 0;
  report.engines_per_grouping = allocation.engines_per_grouping;
  return report;
}

}  // namespace core
}  // namespace insight
