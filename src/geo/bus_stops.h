#ifndef INSIGHT_GEO_BUS_STOPS_H_
#define INSIGHT_GEO_BUS_STOPS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/denclue.h"
#include "geo/grid.h"
#include "geo/latlon.h"

namespace insight {
namespace geo {

/// One noisy "bus reached a stop" report, the input of the bus-stop
/// canonicalisation tool of Section 4.1.2.
struct StopReport {
  LatLon position;
  int line_id = 0;
  bool direction = false;
  /// Bearing (degrees) the bus had when entering the stop area.
  double entry_angle_deg = 0.0;
};

/// A canonical bus stop (a DENCLUE subcluster). Clusters found by DENCLUE are
/// split further by the average entry angle per (line, direction) so that the
/// two directions of a road get distinct stops.
struct BusStop {
  int64_t id = 0;
  LatLon center;
  /// Representative entry angle of the subcluster.
  double angle_deg = 0.0;
  /// (line, direction) pairs observed at this subcluster.
  std::vector<std::pair<int, bool>> lines;
  /// Parent DENCLUE cluster.
  int cluster_id = 0;
  size_t report_count = 0;
};

/// Builds canonical stops from noisy reports and answers nearest-stop queries
/// for new (position, line, direction) tuples.
class BusStopIndex {
 public:
  struct Options {
    Denclue::Options denclue;
    /// Subclusters within one cluster merge when their mean entry angles are
    /// closer than this (degrees).
    double angle_split_deg = 60.0;
    /// Reports farther than this from every stop get kInvalidStop (meters).
    double max_assign_distance = 250.0;
  };

  BusStopIndex() = default;
  explicit BusStopIndex(const Options& options) : options_(options) {}

  /// Runs DENCLUE + angle splitting over the reports. Replaces any previous
  /// content. Returns the number of canonical stops.
  size_t Build(const std::vector<StopReport>& reports);

  /// Closest canonical stop for a new observation; prefers subclusters that
  /// have seen the same (line, direction), falling back to the nearest by
  /// angle. Returns -1 when nothing is within max_assign_distance. Equal
  /// distances go to the lowest stop id. Only stops in the grid cells that
  /// can hold a stop within max_assign_distance are measured.
  int64_t Locate(const LatLon& position, int line_id, bool direction) const;

  const std::vector<BusStop>& stops() const { return stops_; }
  /// Stop ids are dense: stop `id` is stops()[id].
  Result<BusStop> GetStop(int64_t id) const;

 private:
  Options options_;
  std::vector<BusStop> stops_;
  // Stop centres keyed by (normalised lon, lat) in degrees; cells are about
  // max_assign_distance on a side.
  CellGrid grid_;
  // Projection origin captured at Build() so Locate() maps queries the same way.
  bool has_projection_ = false;
  LatLon projection_origin_;
};

}  // namespace geo
}  // namespace insight

#endif  // INSIGHT_GEO_BUS_STOPS_H_
