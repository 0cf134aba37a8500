#ifndef INSIGHT_CORE_PARTITIONING_H_
#define INSIGHT_CORE_PARTITIONING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dsps/tuple.h"

namespace insight {
namespace core {

/// Expected input rate of one spatial location ("the amount of bus traces
/// expected to be processed by the engine in that location", Section 4.2.1).
/// Rates come from historical data and are incrementally updated at runtime.
struct RegionRate {
  int64_t region = 0;
  double rate = 0.0;
};

/// Algorithm 1 (Rule's Partitioning): assigns a rule's spatial locations to
/// engines so that every engine receives approximately the same aggregated
/// input rate — sort regions by descending rate, then repeatedly give the
/// next region to the least-loaded engine (LPT greedy).
/// Returns region -> engine index in [0, num_engines).
Result<std::map<int64_t, int>> PartitionRegions(std::vector<RegionRate> rates,
                                                int num_engines);

/// Aggregate rate per engine under an assignment (for balance checks).
std::vector<double> EngineRates(const std::map<int64_t, int>& assignment,
                                const std::vector<RegionRate>& rates);

/// One step of an incremental re-partitioning plan: move `region` from
/// `from_engine` to `to_engine`.
struct RegionMove {
  int64_t region = 0;
  int from_engine = 0;
  int to_engine = 0;
  double rate = 0.0;
};

/// Incremental re-partitioning (the online counterpart of Algorithm 1): given
/// an existing region -> engine assignment and fresh rate estimates, plans a
/// minimal sequence of region moves that takes the bottleneck engine's load
/// down until max/avg load <= `target_imbalance` (>= 1.0) or `max_moves`
/// moves have been planned. Greedy LPT refinement: each step moves the
/// largest region off the most-loaded engine that still lowers the maximum
/// load. Unlike a from-scratch PartitionRegions() this preserves the bulk of
/// the assignment, so only the moved regions' engine state is disturbed.
/// `assignment` is updated in place to reflect the planned moves.
Result<std::vector<RegionMove>> PlanRebalance(
    std::map<int64_t, int>* assignment, const std::vector<RegionRate>& rates,
    int num_engines, double target_imbalance, size_t max_moves);

/// Tracks observed per-region input rates so the partitioner can start from
/// historical knowledge and be refreshed as the application runs
/// ("incrementally update them while the application runs"). Thread-safe:
/// splitter tasks observe concurrently while the optimizer reads estimates.
class RegionRateTracker {
 public:
  /// Seeds historical rates.
  void Seed(const std::vector<RegionRate>& rates);
  /// Records one observed tuple for the region.
  void Observe(int64_t region);
  /// Records `count` observed tuples per region in one update (tallies
  /// merged at a run boundary).
  void ObserveCounts(const std::unordered_map<int64_t, uint64_t>& counts);
  /// Current estimates as shares of the input: (1 - scale) * seeded share +
  /// scale * observed share per region, scale = min(1, observed total /
  /// 1000). Once 1000 tuples are observed the seed no longer counts, so a
  /// seeded region never observed reads 0 and observing the same traffic
  /// again leaves the estimates unchanged.
  std::vector<RegionRate> Estimates() const;
  uint64_t observed_total() const;

 private:
  mutable Mutex mutex_{TMS_LOCK_RANK(72)};
  std::map<int64_t, double> seeded_ GUARDED_BY(mutex_);
  std::map<int64_t, uint64_t> observed_ GUARDED_BY(mutex_);
  uint64_t observed_total_ GUARDED_BY(mutex_) = 0;
};

/// The Splitter bolt's routing schema: one entry per grouping of rules, each
/// partitioned at its own location field. A tuple goes to the engine owning
/// its region in every grouping (duplicates removed), so rules grouped
/// together never cause re-transmissions (Section 4.2.2).
class SpatialRouter {
 public:
  struct GroupingRoute {
    /// Tuple field carrying the region id for this grouping ("bus_stop",
    /// "area_leaf", "area_layer<k>").
    std::string location_field;
    std::map<int64_t, int> region_to_engine;
    /// Engines usable for regions missing from the map (first-seen regions
    /// are routed by modulo so nothing is dropped).
    std::vector<int> fallback_engines;
  };

  explicit SpatialRouter(std::vector<GroupingRoute> routes);

  /// Target engine-task list for a tuple (deduplicated, sorted).
  void Route(const dsps::Tuple& tuple, std::vector<int>* tasks) const;

  /// The engine task grouping `grouping` sends region `region` to, or -1
  /// when the grouping has no engine for it.
  int EngineFor(size_t grouping, int64_t region) const;

  /// Adapter for traffic::SplitterBolt.
  std::function<void(const dsps::Tuple&, std::vector<int>*)> AsFunction() const;

  const std::vector<GroupingRoute>& routes() const { return routes_; }

 private:
  std::vector<GroupingRoute> routes_;
  /// routes_[i].location_field is slot i.
  dsps::FieldSlots location_slots_;
};

}  // namespace core
}  // namespace insight

#endif  // INSIGHT_CORE_PARTITIONING_H_
