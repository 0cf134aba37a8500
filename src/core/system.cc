#include "core/system.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <tuple>
#include <unordered_map>

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
  live_.reset();  // the next Run() builds the topology for the new rules
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

std::shared_ptr<traffic::EsperBoltConfig> MakeEsperBoltConfig(
    std::vector<RetrievalSetup> setups, const std::vector<int>& engines_per_grouping) {
  auto config = std::make_shared<traffic::EsperBoltConfig>();
  config->layers = {};  // rules use area_leaf / bus_stop
  std::vector<size_t> grouping_of_task;
  for (size_t g = 0; g < setups.size(); ++g) {
    for (int e = 0; e < engines_per_grouping[g]; ++e) {
      config->rules_per_task.push_back(setups[g].rules);
      grouping_of_task.push_back(g);
    }
  }
  const bool hook =
      std::any_of(setups.begin(), setups.end(),
                  [](const RetrievalSetup& s) { return s.before_send != nullptr; });
  if (hook) {
    auto shared = std::make_shared<const std::vector<RetrievalSetup>>(std::move(setups));
    config->before_send = [shared, grouping_of_task](cep::Engine* engine, int task,
                                                     const dsps::Tuple& tuple) {
      const RetrievalSetup& setup =
          (*shared)[grouping_of_task[static_cast<size_t>(task)]];
      if (setup.before_send) setup.before_send(engine, task, tuple);
    };
  }
  return config;
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Routed tuples per region of one splitter task. Written only by that
/// task's executor; read and cleared at the Run() barrier, when nothing is
/// in flight.
struct RegionTally {
  std::unordered_map<int64_t, uint64_t> areas;
  std::unordered_map<int64_t, uint64_t> stops;
};

/// One threshold row as an engine's std:unique window holds it; `stream`
/// indexes Live::streams.
struct HeldThreshold {
  size_t stream = 0;
  storage::ThresholdRow row;
};

/// Order of the std:unique key (stream, location, hour, day).
bool SlotLess(const HeldThreshold& a, const HeldThreshold& b) {
  return std::tie(a.stream, a.row.location, a.row.hour, a.row.date_type) <
         std::tie(b.stream, b.row.location, b.row.hour, b.row.date_type);
}

bool SameSlot(const HeldThreshold& a, const HeldThreshold& b) {
  return !SlotLess(a, b) && !SlotLess(b, a);
}

bool SameThreshold(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// What one engine gets at a run boundary.
struct ThresholdUpdate {
  /// Threshold event types to empty first (the engine lost a slot).
  std::vector<std::string> reset_types;
  std::vector<HeldThreshold> rows;
};

bool SameRoutes(const SpatialRouter& a, const SpatialRouter& b) {
  if (a.routes().size() != b.routes().size()) return false;
  for (size_t g = 0; g < a.routes().size(); ++g) {
    if (a.routes()[g].region_to_engine != b.routes()[g].region_to_engine ||
        a.routes()[g].fallback_engines != b.routes()[g].fallback_engines) {
      return false;
    }
  }
  return true;
}

}  // namespace

struct TrafficManagementSystem::Live {
  /// A threshold stream the rules join with (kThresholdStream only).
  struct Stream {
    std::string key;  // attribute key, e.g. "delay_stop"
    double signed_s = 0.0;
    size_t grouping = 0;
  };

  AllocationResult allocation;
  /// Esper task -> its grouping.
  std::vector<size_t> grouping_of_task;
  std::vector<Stream> streams;
  /// Statistics cycle the thresholds (or, under kMultipleRules and
  /// kJoinWithDatabase, the compiled rules) come from.
  size_t cycle = 0;
  /// Rows per stream at `cycle`: one query per stream per cycle.
  std::vector<std::vector<storage::ThresholdRow>> rows;
  /// Per Esper task, what its threshold windows hold, sorted by slot.
  std::vector<std::vector<HeldThreshold>> held;
  /// The splitters route with this. Replaced only at a run boundary.
  std::shared_ptr<const SpatialRouter> router;
  std::shared_ptr<const std::vector<traffic::BusTrace>> traces;
  Mutex tallies_mutex{TMS_LOCK_RANK(74)};
  std::vector<std::shared_ptr<RegionTally>> tallies GUARDED_BY(tallies_mutex);
  /// Last: stops before the state above its tasks use.
  std::unique_ptr<dsps::LocalRuntime> runtime;

  /// Queries every stream's rows from the store.
  void LoadThresholds(const storage::TableStore& store) {
    rows.assign(streams.size(), {});
    for (size_t k = 0; k < streams.size(); ++k) {
      auto result = storage::QueryThresholds(store, streams[k].key, streams[k].signed_s);
      if (result.ok()) rows[k] = std::move(*result);  // table may not exist yet
    }
  }

  /// Per Esper task, what a fresh scoped preload gives it: its grouping's
  /// rows for the locations the router sends it, the last row of each slot
  /// (what std:unique keeps), sorted by slot.
  std::vector<std::vector<HeldThreshold>> Scoped() const {
    std::vector<std::vector<HeldThreshold>> out(grouping_of_task.size());
    for (size_t k = 0; k < streams.size(); ++k) {
      for (const storage::ThresholdRow& row : rows[k]) {
        int task = router->EngineFor(streams[k].grouping, row.location);
        if (task >= 0) out[static_cast<size_t>(task)].push_back({k, row});
      }
    }
    for (std::vector<HeldThreshold>& held_rows : out) {
      std::stable_sort(held_rows.begin(), held_rows.end(), SlotLess);
      size_t kept = 0;
      for (size_t i = 0; i < held_rows.size(); ++i) {
        const bool superseded =
            i + 1 < held_rows.size() && SameSlot(held_rows[i], held_rows[i + 1]);
        if (superseded) continue;
        if (kept != i) held_rows[kept] = std::move(held_rows[i]);
        ++kept;
      }
      held_rows.resize(kept);
    }
    return out;
  }

  /// The update taking task `task` from what it holds to `target`: the
  /// changed and new rows or, when it holds a slot `target` lacks, empty
  /// threshold windows and all of `target`.
  ThresholdUpdate Diff(size_t task, const std::vector<HeldThreshold>& target) const {
    const std::vector<HeldThreshold>& now = held[task];
    ThresholdUpdate update;
    size_t i = 0;
    bool lost = false;
    for (const HeldThreshold& want : target) {
      if (i < now.size() && SlotLess(now[i], want)) {
        lost = true;
        break;
      }
      if (i < now.size() && SameSlot(now[i], want)) {
        if (!SameThreshold(now[i].row.threshold, want.row.threshold)) {
          update.rows.push_back(want);
        }
        ++i;
      } else {
        update.rows.push_back(want);
      }
    }
    if (!lost && i == now.size()) return update;
    for (const Stream& stream : streams) {
      if (stream.grouping == grouping_of_task[task]) {
        update.reset_types.push_back(traffic::ThresholdEventTypeName(stream.key));
      }
    }
    update.rows = target;
    return update;
  }
};

TrafficManagementSystem::~TrafficManagementSystem() = default;

Status TrafficManagementSystem::BuildLive() {
  auto live = std::make_unique<Live>();
  Live* raw = live.get();

  // Allocate engines to groupings (Algorithm 2) and partition (Algorithm 1).
  RulesAllocator allocator(&latency_model_);
  INSIGHT_ASSIGN_OR_RETURN(live->allocation,
                           allocator.Allocate(groupings_, config_.num_esper_engines));
  INSIGHT_ASSIGN_OR_RETURN(SpatialRouter router, BuildRouter(live->allocation));
  live->router = std::make_shared<const SpatialRouter>(std::move(router));

  // Retrieval setup per grouping; tasks map to groupings by index range.
  const bool stream = config_.retrieval == ThresholdRetrieval::kThresholdStream;
  std::vector<RetrievalSetup> setups;
  for (size_t g = 0; g < groupings_.size(); ++g) {
    INSIGHT_ASSIGN_OR_RETURN(
        RetrievalSetup setup,
        BuildRetrieval(config_.retrieval, groupings_[g].rules, &store_,
                       config_.retrieval_options));
    setups.push_back(std::move(setup));
    for (int e = 0; e < live->allocation.engines_per_grouping[g]; ++e) {
      live->grouping_of_task.push_back(g);
    }
    if (!stream) continue;
    for (const auto& [key, signed_s] :
         ThresholdKeys(groupings_[g].rules, config_.retrieval_options.s)) {
      live->streams.push_back({key, signed_s, g});
    }
  }
  auto esper_config =
      MakeEsperBoltConfig(std::move(setups), live->allocation.engines_per_grouping);
  live->cycle = dynamic_->cycles_completed();
  live->held.resize(live->grouping_of_task.size());
  if (stream) {
    live->LoadThresholds(store_);
    live->held = live->Scoped();
    // Each engine starts with its own regions' rows only.
    esper_config->preload = [raw](cep::Engine* engine, int task) {
      for (const HeldThreshold& held : raw->held[static_cast<size_t>(task)]) {
        (void)SendThresholdEvent(engine, raw->streams[held.stream].key, held.row);
      }
    };
  }

  // The stream dataset: the same traces every Run().
  traffic::TraceGenerator generator(config_.generator);
  live->traces = std::make_shared<const std::vector<traffic::BusTrace>>(
      generator.GenerateAll(config_.max_traces));

  // Figure 8 topology. The spout starts empty; Run() feeds it.
  dsps::TopologyBuilder builder;
  builder.SetSpout(
      "busReader",
      [] {
        return std::make_unique<traffic::BusReaderSpout>(
            std::make_shared<const std::vector<traffic::BusTrace>>());
      },
      traffic::RawTraceFields(), config_.reader_executors);
  builder
      .SetBolt(
          "preProcess",
          [weekend = config_.generator.weekend] {
            return std::make_unique<traffic::PreProcessBolt>(weekend);
          },
          traffic::PreProcessedFields(), config_.enrich_executors)
      .FieldsGrouping("busReader", {"vehicle"});
  builder
      .SetBolt(
          "areaTracker",
          [quadtree = quadtree_] {
            return std::make_unique<traffic::AreaTrackerBolt>(
                quadtree, std::vector<int>{});
          },
          traffic::AreaFields({}), config_.enrich_executors)
      .ShuffleGrouping("preProcess");
  builder
      .SetBolt(
          "busStopsTracker",
          [stops = bus_stops_] {
            return std::make_unique<traffic::BusStopsTrackerBolt>(stops);
          },
          traffic::EnrichedFields({}), config_.enrich_executors)
      .ShuffleGrouping("areaTracker");
  // Each splitter task also counts its tuples per region; Run() merges the
  // counts into the rate trackers at its barrier, so the next Run()
  // partitions with observed rates ("incrementally update them while the
  // application runs").
  builder
      .SetBolt(
          "splitter",
          [raw] {
            auto tally = std::make_shared<RegionTally>();
            {
              MutexLock lock(raw->tallies_mutex);
              raw->tallies.push_back(tally);
            }
            return std::make_unique<traffic::SplitterBolt>(
                [raw, tally, slots = dsps::FieldSlots({"area_leaf", "bus_stop"})](
                    const dsps::Tuple& tuple, std::vector<int>* tasks) {
                  raw->router->Route(tuple, tasks);
                  std::unordered_map<int64_t, uint64_t>* counts[] = {&tally->areas,
                                                                     &tally->stops};
                  for (size_t i = 0; i < 2; ++i) {
                    int slot = slots.IndexOf(tuple, i);
                    if (slot < 0) continue;
                    int64_t region = tuple.Get(static_cast<size_t>(slot)).AsInt();
                    if (region >= 0) ++(*counts[i])[region];
                  }
                });
          },
          traffic::EnrichedFields({}), config_.enrich_executors)
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
  live->runtime =
      std::make_unique<dsps::LocalRuntime>(std::move(topology), config_.runtime);
  INSIGHT_RETURN_NOT_OK(live->runtime->Start());
  live_ = std::move(live);
  return Status::OK();
}

Result<size_t> TrafficManagementSystem::StartRun() {
  Live& live = *live_;
  // Re-partition with the rates observed so far. Nothing is in flight, so
  // the splitters can simply switch tables.
  INSIGHT_ASSIGN_OR_RETURN(SpatialRouter router, BuildRouter(live.allocation));
  const bool rerouted = !SameRoutes(router, *live.router);
  if (rerouted) live.router = std::make_shared<const SpatialRouter>(std::move(router));
  // Statistics refreshed since the engines' thresholds were loaded.
  const bool refreshed =
      !live.streams.empty() && live.cycle != dynamic_->cycles_completed();
  if (refreshed) {
    live.cycle = dynamic_->cycles_completed();
    live.LoadThresholds(store_);
  }
  auto updates = std::make_shared<std::vector<ThresholdUpdate>>(live.held.size());
  if (rerouted || refreshed) {
    std::vector<std::vector<HeldThreshold>> target = live.Scoped();
    for (size_t t = 0; t < target.size(); ++t) (*updates)[t] = live.Diff(t, target[t]);
    live.held = std::move(target);
  }
  size_t rows_sent = 0;
  for (const ThresholdUpdate& update : *updates) rows_sent += update.rows.size();
  // Each engine starts a fresh bus stream and takes its threshold updates
  // as events into its existing windows, on its own executor thread.
  Live* raw = &live;
  INSIGHT_RETURN_NOT_OK(live.runtime->RunOnTasks(
      "esper", [raw, updates](dsps::Bolt* bolt, int task) {
        auto* esper = static_cast<traffic::EsperBolt*>(bolt);
        esper->NewStream();
        const ThresholdUpdate& update = (*updates)[static_cast<size_t>(task)];
        for (const std::string& type : update.reset_types) {
          esper->engine()->ResetStream(type);
        }
        for (const HeldThreshold& held : update.rows) {
          (void)SendThresholdEvent(esper->engine(), raw->streams[held.stream].key,
                                   held.row);
        }
      }));
  INSIGHT_RETURN_NOT_OK(live.runtime->RunOnTasks("preProcess", [](dsps::Bolt* bolt, int) {
    static_cast<traffic::PreProcessBolt*>(bolt)->NewStream();
  }));
  return rows_sent;
}

Result<TrafficManagementSystem::RunReport> TrafficManagementSystem::Run() {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize() first");
  }
  // Rules compiled from (kMultipleRules) or deduplicated against
  // (kJoinWithDatabase) the old statistics: rebuild.
  const bool rules_read_statistics =
      config_.retrieval == ThresholdRetrieval::kMultipleRules ||
      config_.retrieval == ThresholdRetrieval::kJoinWithDatabase;
  if (live_ != nullptr && rules_read_statistics &&
      live_->cycle != dynamic_->cycles_completed()) {
    live_.reset();
  }

  RunReport report;
  const auto build_start = std::chrono::steady_clock::now();
  const bool build = live_ == nullptr;
  if (build) INSIGHT_RETURN_NOT_OK(BuildLive());
  const auto boundary_start = std::chrono::steady_clock::now();
  INSIGHT_ASSIGN_OR_RETURN(report.threshold_rows_sent, StartRun());
  if (build) {
    report.build_seconds = SecondsSince(build_start);
  } else {
    report.boundary_seconds = SecondsSince(boundary_start);
  }

  Live& live = *live_;
  const auto esper_before = live.runtime->metrics()->Totals("esper");
  const auto cpu_before = live.runtime->ExecutorCpuTimes();
  const auto start = std::chrono::steady_clock::now();
  INSIGHT_RETURN_NOT_OK(live.runtime->Feed(
      "busReader", [traces = live.traces](dsps::Spout* spout, int) {
        static_cast<traffic::BusReaderSpout*>(spout)->Feed(traces);
      }));
  if (!live.runtime->AwaitQuiescence()) {
    return Status::Internal("topology stopped during the run");
  }
  report.wall_seconds = SecondsSince(start);
  report.utilisation = dsps::LocalRuntime::Utilisation(
      cpu_before, live.runtime->ExecutorCpuTimes(), report.wall_seconds);

  std::vector<std::shared_ptr<RegionTally>> tallies;
  {
    MutexLock lock(live.tallies_mutex);
    tallies = live.tallies;
  }
  for (const auto& tally : tallies) {
    area_tracker_.ObserveCounts(tally->areas);
    stop_tracker_.ObserveCounts(tally->stops);
    tally->areas.clear();
    tally->stops.clear();
  }

  report.traces_fed = live.traces->size();
  report.esper = live.runtime->metrics()->Totals("esper").Since(esper_before);
  if (report.wall_seconds > 0) {
    report.esper_throughput =
        static_cast<double>(report.esper.executed) / report.wall_seconds;
  }
  auto detections = store_.RowCount(traffic::EventsStorerBolt::kTableName);
  report.detections = detections.ok() ? *detections : 0;
  report.engines_per_grouping = live.allocation.engines_per_grouping;
  return report;
}

Status TrafficManagementSystem::VisitEngines(
    const std::function<void(int task, const cep::Engine& engine)>& visit) {
  if (live_ == nullptr) return Status::FailedPrecondition("no running topology");
  return live_->runtime->RunOnTasks("esper", [&visit](dsps::Bolt* bolt, int task) {
    visit(task, *static_cast<traffic::EsperBolt*>(bolt)->engine());
  });
}

std::shared_ptr<const SpatialRouter> TrafficManagementSystem::router() const {
  return live_ == nullptr ? nullptr : live_->router;
}

}  // namespace core
}  // namespace insight
