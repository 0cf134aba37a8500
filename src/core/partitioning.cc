#include "core/partitioning.h"

#include <algorithm>

namespace insight {
namespace core {

Result<std::map<int64_t, int>> PartitionRegions(std::vector<RegionRate> rates,
                                                int num_engines) {
  if (num_engines <= 0) {
    return Status::InvalidArgument("num_engines must be positive");
  }
  for (const RegionRate& r : rates) {
    if (r.rate < 0) {
      return Status::InvalidArgument("negative rate for region " +
                                     std::to_string(r.region));
    }
  }
  // "Sort Region_Rates in descending order".
  std::stable_sort(rates.begin(), rates.end(),
                   [](const RegionRate& a, const RegionRate& b) {
                     return a.rate > b.rate;
                   });
  std::vector<double> engine_rate(static_cast<size_t>(num_engines), 0.0);
  std::map<int64_t, int> assignment;
  for (const RegionRate& region : rates) {
    // "for all engine_i in Engines: find the less loaded".
    int less_loaded = 0;
    for (int e = 1; e < num_engines; ++e) {
      if (engine_rate[static_cast<size_t>(e)] <
          engine_rate[static_cast<size_t>(less_loaded)]) {
        less_loaded = e;
      }
    }
    assignment[region.region] = less_loaded;
    engine_rate[static_cast<size_t>(less_loaded)] += region.rate;
  }
  return assignment;
}

std::vector<double> EngineRates(const std::map<int64_t, int>& assignment,
                                const std::vector<RegionRate>& rates) {
  int max_engine = -1;
  for (const auto& [region, engine] : assignment) {
    max_engine = std::max(max_engine, engine);
  }
  std::vector<double> out(static_cast<size_t>(max_engine + 1), 0.0);
  for (const RegionRate& r : rates) {
    auto it = assignment.find(r.region);
    if (it != assignment.end()) out[static_cast<size_t>(it->second)] += r.rate;
  }
  return out;
}

Result<std::vector<RegionMove>> PlanRebalance(
    std::map<int64_t, int>* assignment, const std::vector<RegionRate>& rates,
    int num_engines, double target_imbalance, size_t max_moves) {
  if (assignment == nullptr) {
    return Status::InvalidArgument("assignment required");
  }
  if (num_engines <= 0) {
    return Status::InvalidArgument("num_engines must be positive");
  }
  if (target_imbalance < 1.0) {
    return Status::InvalidArgument("target_imbalance must be >= 1.0");
  }
  std::map<int64_t, double> rate_of;
  for (const RegionRate& r : rates) {
    if (r.rate < 0) {
      return Status::InvalidArgument("negative rate for region " +
                                     std::to_string(r.region));
    }
    rate_of[r.region] = r.rate;
  }
  std::vector<double> load(static_cast<size_t>(num_engines), 0.0);
  double total = 0.0;
  for (const auto& [region, engine] : *assignment) {
    if (engine < 0 || engine >= num_engines) {
      return Status::InvalidArgument("assignment references engine " +
                                     std::to_string(engine) + " outside [0, " +
                                     std::to_string(num_engines) + ")");
    }
    auto it = rate_of.find(region);
    double rate = it == rate_of.end() ? 0.0 : it->second;
    load[static_cast<size_t>(engine)] += rate;
    total += rate;
  }
  std::vector<RegionMove> moves;
  if (total <= 0.0) return moves;
  double avg = total / static_cast<double>(num_engines);
  while (moves.size() < max_moves) {
    size_t hot = 0;
    size_t cold = 0;
    for (size_t e = 1; e < load.size(); ++e) {
      if (load[e] > load[hot]) hot = e;
      if (load[e] < load[cold]) cold = e;
    }
    if (load[hot] <= target_imbalance * avg) break;
    // Pick the largest region on the hot engine whose move to the coldest
    // engine still lowers the maximum (i.e. does not just swap the roles).
    int64_t best_region = 0;
    double best_rate = -1.0;
    for (const auto& [region, engine] : *assignment) {
      if (static_cast<size_t>(engine) != hot) continue;
      auto it = rate_of.find(region);
      double rate = it == rate_of.end() ? 0.0 : it->second;
      if (rate <= 0.0) continue;
      if (load[cold] + rate >= load[hot]) continue;
      if (rate > best_rate) {
        best_rate = rate;
        best_region = region;
      }
    }
    if (best_rate <= 0.0) break;  // no improving move exists
    (*assignment)[best_region] = static_cast<int>(cold);
    load[hot] -= best_rate;
    load[cold] += best_rate;
    moves.push_back({best_region, static_cast<int>(hot),
                     static_cast<int>(cold), best_rate});
  }
  return moves;
}

void RegionRateTracker::Seed(const std::vector<RegionRate>& rates) {
  MutexLock lock(mutex_);
  for (const RegionRate& r : rates) seeded_[r.region] = r.rate;
}

void RegionRateTracker::Observe(int64_t region) {
  MutexLock lock(mutex_);
  ++observed_[region];
  ++observed_total_;
}

void RegionRateTracker::ObserveCounts(
    const std::unordered_map<int64_t, uint64_t>& counts) {
  MutexLock lock(mutex_);
  for (const auto& [region, count] : counts) {
    observed_[region] += count;
    observed_total_ += count;
  }
}

uint64_t RegionRateTracker::observed_total() const {
  MutexLock lock(mutex_);
  return observed_total_;
}

std::vector<RegionRate> RegionRateTracker::Estimates() const {
  MutexLock lock(mutex_);
  // Seed and observations as shares of their own totals, so that once the
  // observations dominate, equal traffic gives equal estimates however long
  // it has been observed.
  double seeded_total = 0.0;
  for (const auto& [region, rate] : seeded_) seeded_total += rate;
  const double scale =
      std::min(1.0, static_cast<double>(observed_total_) / 1000.0);
  std::map<int64_t, double> blend;
  if (seeded_total > 0.0) {
    for (const auto& [region, rate] : seeded_) {
      blend[region] += (1.0 - scale) * (rate / seeded_total);
    }
  }
  if (observed_total_ > 0) {
    for (const auto& [region, count] : observed_) {
      blend[region] += scale * (static_cast<double>(count) /
                                static_cast<double>(observed_total_));
    }
  }
  std::vector<RegionRate> out;
  out.reserve(blend.size());
  for (const auto& [region, rate] : blend) out.push_back({region, rate});
  return out;
}

namespace {

std::vector<std::string> LocationFields(
    const std::vector<SpatialRouter::GroupingRoute>& routes) {
  std::vector<std::string> names;
  names.reserve(routes.size());
  for (const auto& route : routes) names.push_back(route.location_field);
  return names;
}

}  // namespace

SpatialRouter::SpatialRouter(std::vector<GroupingRoute> routes)
    : routes_(std::move(routes)), location_slots_(LocationFields(routes_)) {}

void SpatialRouter::Route(const dsps::Tuple& tuple,
                          std::vector<int>* tasks) const {
  tasks->clear();
  for (size_t r = 0; r < routes_.size(); ++r) {
    int slot = location_slots_.IndexOf(tuple, r);
    if (slot < 0) continue;
    int engine = EngineFor(r, tuple.Get(static_cast<size_t>(slot)).AsInt());
    if (engine >= 0) tasks->push_back(engine);
  }
  std::sort(tasks->begin(), tasks->end());
  tasks->erase(std::unique(tasks->begin(), tasks->end()), tasks->end());
}

int SpatialRouter::EngineFor(size_t grouping, int64_t region) const {
  const GroupingRoute& route = routes_[grouping];
  auto it = route.region_to_engine.find(region);
  if (it != route.region_to_engine.end()) return it->second;
  if (route.fallback_engines.empty()) return -1;
  size_t pick = static_cast<size_t>(region < 0 ? -region : region) %
                route.fallback_engines.size();
  return route.fallback_engines[pick];
}

std::function<void(const dsps::Tuple&, std::vector<int>*)>
SpatialRouter::AsFunction() const {
  return [this](const dsps::Tuple& tuple, std::vector<int>* tasks) {
    Route(tuple, tasks);
  };
}

}  // namespace core
}  // namespace insight
