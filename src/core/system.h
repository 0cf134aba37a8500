#ifndef INSIGHT_CORE_SYSTEM_H_
#define INSIGHT_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/allocation.h"
#include "core/dynamic.h"
#include "core/partitioning.h"
#include "core/retrieval.h"
#include "core/rule_template.h"
#include "dfs/mini_dfs.h"
#include "dsps/local_runtime.h"
#include "geo/bus_stops.h"
#include "geo/quadtree.h"
#include "model/latency_model.h"
#include "storage/table_store.h"
#include "traffic/bolts.h"
#include "traffic/generator.h"

namespace insight {
namespace core {

/// Offline enrichment of traces (speed, actual delay, hour, date type, area
/// and bus-stop annotations) — the same computation the PreProcess / Area
/// Tracker / BusStops Tracker bolts perform online, used to bootstrap the
/// DFS history before the first batch cycle.
void EnrichTraces(std::vector<traffic::BusTrace>* traces,
                  const geo::RegionQuadtree& quadtree,
                  const geo::BusStopIndex& stops);

/// Per-region tuple counts over a trace set (seed rates for Algorithm 1).
std::vector<RegionRate> ComputeRegionRates(
    const std::vector<traffic::BusTrace>& traces, bool by_bus_stop);

/// The Esper bolt configuration for one allocation. Tasks are laid out
/// grouping by grouping, `engines_per_grouping[g]` tasks for grouping g,
/// and each gets setups[g]'s rules. The before_send hook is installed only
/// when some setup has one, so an Esper bolt without it makes no hook call
/// per tuple. Preloading is left to the caller.
std::shared_ptr<traffic::EsperBoltConfig> MakeEsperBoltConfig(
    std::vector<RetrievalSetup> setups, const std::vector<int>& engines_per_grouping);

/// The end-to-end system of Figure 3 / Figure 8: workload generation,
/// spatial indexing, batch bootstrap, rule partitioning/allocation, the
/// Storm-like topology with one Esper engine per Esper-bolt task, and the
/// events store.
class TrafficManagementSystem {
 public:
  struct Config {
    traffic::TraceGenerator::Options generator;
    /// Traces fed through the topology (per run).
    size_t max_traces = 20000;
    /// Traces used to bootstrap history / region rates / bus stops.
    size_t bootstrap_traces = 20000;
    size_t stop_report_samples = 2000;

    geo::RegionQuadtree::Options quadtree;
    size_t quadtree_seed_points = 600;

    std::vector<RuleTemplate> rules;
    int num_esper_engines = 4;
    ThresholdRetrieval retrieval = ThresholdRetrieval::kThresholdStream;
    RetrievalOptions retrieval_options;

    /// Topology parallelism (the Esper bolt gets num_esper_engines tasks).
    int reader_executors = 1;
    int preprocess_executors = 2;
    int tracker_executors = 2;
    int splitter_executors = 1;
    int storer_executors = 1;
    int num_workers = 1;
    dsps::LocalRuntime::Options runtime;
  };

  struct RunReport {
    size_t traces_fed = 0;
    /// Rows in the events store after this run (all runs so far).
    size_t detections = 0;
    /// From handing the traces to the spout to the quiescence barrier.
    double wall_seconds = 0.0;
    /// Time this Run() spent building the topology before the stream
    /// started (engines, statements, threshold preload); 0 when it reused
    /// the running one.
    double build_seconds = 0.0;
    /// Esper-bolt totals of this run (the bolt the paper's evaluation
    /// focuses on).
    dsps::MetricsRegistry::ComponentTotals esper;
    /// Tuples/second through the Esper bolt.
    double esper_throughput = 0.0;
    /// Engines granted per grouping by Algorithm 2.
    std::vector<int> engines_per_grouping;
  };

  explicit TrafficManagementSystem(Config config);
  ~TrafficManagementSystem();

  /// Builds the quadtree and canonical bus stops, generates the bootstrap
  /// history, runs the first batch cycle and computes seed region rates.
  Status Initialize();

  /// Streams the traces through the Figure-8 topology once and reports this
  /// run's metrics. The topology is built at the first Run() after
  /// Initialize() or AddRules() and then kept running; each Run() is a
  /// fresh stream over it (see DESIGN.md "Long-lived topology"). Region
  /// rates observed by the splitter update the rate trackers, so the next
  /// Run() re-partitions with fresher estimates (the paper's periodic
  /// Start-Up Optimization, Section 4.2), and statistics refreshed since the
  /// last Run() reach the engines' threshold windows before it streams.
  Result<RunReport> Run();

  /// Registers additional rules after Initialize(); groupings and the
  /// allocation are recomputed and the topology rebuilt on the next Run()
  /// ("the component's optimizations can be invoked ... when new rules are
  /// submitted").
  Status AddRules(const std::vector<RuleTemplate>& rules);

  /// Calls visit(task, engine) for every Esper task's engine, each on its
  /// task's executor thread, between runs. FailedPrecondition before the
  /// first Run().
  Status VisitEngines(
      const std::function<void(int task, const cep::Engine& engine)>& visit);
  /// The routing schema the last Run() streamed with; null before the
  /// first Run().
  std::shared_ptr<const SpatialRouter> router() const;

  // ---- introspection ----
  storage::TableStore* store() { return &store_; }
  dfs::MiniDfs* dfs() { return &dfs_; }
  const geo::RegionQuadtree& quadtree() const { return *quadtree_; }
  const geo::BusStopIndex& bus_stops() const { return *bus_stops_; }
  DynamicRuleManager* dynamic_manager() { return dynamic_.get(); }
  const std::vector<RuleGrouping>& groupings() const { return groupings_; }
  const RegionRateTracker& area_rates() const { return area_tracker_; }
  const RegionRateTracker& stop_rates() const { return stop_tracker_; }

 private:
  /// The running topology and what it was built from (system.cc).
  struct Live;

  Result<SpatialRouter> BuildRouter(const AllocationResult& allocation) const;
  /// Builds and starts the topology for the current rules.
  Status BuildLive();
  /// Brings the running topology to a run boundary: the current routing,
  /// the thresholds of the current statistics, fresh per-stream state.
  Status StartRun();

  Config config_;
  storage::TableStore store_;
  dfs::MiniDfs dfs_;
  std::shared_ptr<const geo::RegionQuadtree> quadtree_;
  std::shared_ptr<const geo::BusStopIndex> bus_stops_;
  Status RebuildGroupings();

  std::unique_ptr<DynamicRuleManager> dynamic_;
  std::vector<RuleGrouping> groupings_;
  RegionRateTracker area_tracker_;
  RegionRateTracker stop_tracker_;
  model::LatencyModel latency_model_ = model::LatencyModel::Default();
  bool initialized_ = false;
  /// Last member: its runtime stops before anything it uses is destroyed.
  std::unique_ptr<Live> live_;
};

}  // namespace core
}  // namespace insight

#endif  // INSIGHT_CORE_SYSTEM_H_
