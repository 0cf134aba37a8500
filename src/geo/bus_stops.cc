#include "geo/bus_stops.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace insight {
namespace geo {

namespace {

// Slack on Locate's search reach: relative, and absolute in degrees (about
// 0.1 mm). Both are far above the rounding error of the haversine and of
// NormalizeLon, and far below a grid cell.
constexpr double kReachSlack = 1e-6;
constexpr double kReachSlackDeg = 1e-9;

double Widen(double reach_deg) {
  return reach_deg * (1.0 + kReachSlack) + kReachSlackDeg;
}

// Longitude folded into [-180, 180]; the haversine is periodic in it.
double NormalizeLon(double lon) {
  return lon - 360.0 * std::floor((lon + 180.0) / 360.0);
}

}  // namespace

size_t BusStopIndex::Build(const std::vector<StopReport>& reports) {
  stops_.clear();
  grid_.Clear();
  has_projection_ = false;
  if (reports.empty()) return 0;

  // Project around the reports' centroid.
  double clat = 0.0, clon = 0.0;
  for (const auto& r : reports) {
    clat += r.position.lat;
    clon += r.position.lon;
  }
  projection_origin_ = {clat / static_cast<double>(reports.size()),
                        clon / static_cast<double>(reports.size())};
  has_projection_ = true;
  LocalProjection proj(projection_origin_);

  std::vector<Denclue::Point> points(reports.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    proj.ToXY(reports[i].position, &points[i].x, &points[i].y);
  }

  Denclue denclue(options_.denclue);
  Denclue::ClusterResult clusters = denclue.Cluster(points);

  // Per cluster: average entry angle per (line, direction), then group those
  // (line, direction) keys into angle subclusters.
  struct LineDirStats {
    double sum_sin = 0.0, sum_cos = 0.0;
    double sum_x = 0.0, sum_y = 0.0;
    size_t count = 0;
    double MeanAngle() const { return NormalizeDeg(std::atan2(sum_sin, sum_cos)); }
    static double NormalizeDeg(double rad) {
      double deg = RadToDeg(rad);
      if (deg < 0) deg += 360.0;
      return deg;
    }
  };
  std::map<std::pair<int, std::pair<int, bool>>, LineDirStats> stats;
  for (size_t i = 0; i < reports.size(); ++i) {
    int cluster = clusters.labels[i];
    if (cluster < 0) continue;
    auto key = std::make_pair(cluster,
                              std::make_pair(reports[i].line_id, reports[i].direction));
    LineDirStats& s = stats[key];
    double rad = DegToRad(reports[i].entry_angle_deg);
    s.sum_sin += std::sin(rad);
    s.sum_cos += std::cos(rad);
    s.sum_x += points[i].x;
    s.sum_y += points[i].y;
    ++s.count;
  }

  // Greedy angle grouping inside each cluster: each (line, dir) joins the
  // first subcluster whose representative angle is within angle_split_deg,
  // otherwise starts a new subcluster.
  struct SubCluster {
    double angle_deg = 0.0;
    double sum_x = 0.0, sum_y = 0.0;
    size_t count = 0;
    std::vector<std::pair<int, bool>> lines;
  };
  std::map<int, std::vector<SubCluster>> per_cluster;
  for (const auto& [key, s] : stats) {
    int cluster = key.first;
    double angle = s.MeanAngle();
    auto& subs = per_cluster[cluster];
    SubCluster* target = nullptr;
    for (auto& sub : subs) {
      if (AngleDifference(sub.angle_deg, angle) <= options_.angle_split_deg) {
        target = &sub;
        break;
      }
    }
    if (target == nullptr) {
      subs.emplace_back();
      target = &subs.back();
      target->angle_deg = angle;
    }
    target->sum_x += s.sum_x;
    target->sum_y += s.sum_y;
    target->count += s.count;
    target->lines.push_back(key.second);
  }

  int64_t next_id = 0;
  for (auto& [cluster, subs] : per_cluster) {
    for (auto& sub : subs) {
      BusStop stop;
      stop.id = next_id++;
      stop.cluster_id = cluster;
      stop.angle_deg = sub.angle_deg;
      stop.lines = std::move(sub.lines);
      std::sort(stop.lines.begin(), stop.lines.end());
      stop.report_count = sub.count;
      stop.center = proj.FromXY(sub.sum_x / static_cast<double>(sub.count),
                                sub.sum_y / static_cast<double>(sub.count));
      stops_.push_back(std::move(stop));
    }
  }

  // A centre off the valid latitude range has no meaningful cell; a NaN key
  // leaves it unplaced, so every query measures it as the scan would.
  std::vector<CellGrid::Key> keys(stops_.size());
  for (size_t i = 0; i < stops_.size(); ++i) {
    const LatLon& c = stops_[i].center;
    keys[i] = {NormalizeLon(c.lon), c.lat};
    if (!(std::fabs(c.lat) <= 90.0)) keys[i].x = std::numeric_limits<double>::quiet_NaN();
  }
  const double cell_lat = RadToDeg(options_.max_assign_distance / kEarthRadiusMeters);
  grid_.Build(keys, cell_lat / std::cos(DegToRad(projection_origin_.lat)), cell_lat);
  return stops_.size();
}

int64_t BusStopIndex::Locate(const LatLon& position, int line_id,
                             bool direction) const {
  if (stops_.empty() || !has_projection_) return -1;
  // A non-finite coordinate makes the haversine NaN against every stop.
  if (!std::isfinite(position.lat) || !std::isfinite(position.lon)) return -1;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Box holding every stop whose haversine can be <= max_assign_distance.
  // The term sin^2(dlat/2) alone bounds |dlat| by d / R. With both
  // latitudes within `worst` of the equator, cos(lat1) cos(lat2) >=
  // cos^2(worst) bounds |sin(dlon/2)| by sin(d / 2R) / cos(worst). Near a
  // pole neither bound holds and the whole grid is searched.
  const double half_angle = options_.max_assign_distance / (2.0 * kEarthRadiusMeters);
  const double lat_reach = Widen(RadToDeg(2.0 * half_angle));
  const double worst = std::fabs(position.lat) + lat_reach;
  double min_lat = -kInf, max_lat = kInf, lon_reach = kInf;
  if (worst < 90.0) {
    min_lat = position.lat - lat_reach;
    max_lat = position.lat + lat_reach;
    const double s = std::sin(half_angle) / std::cos(DegToRad(worst));
    if (s < 1.0) lon_reach = Widen(RadToDeg(2.0 * std::asin(s)));
  }

  // Exact haversine on every candidate. Stops outside the box are farther
  // than the cutoff, so they could never be returned; ties go to the lowest
  // id, as a scan in id order keeping the first strict minimum does.
  const std::pair<int, bool> key{line_id, direction};
  double best_known = kInf;
  int64_t best_known_id = -1;
  double best_any = kInf;
  int64_t best_any_id = -1;
  auto consider = [&](uint32_t i) {
    const BusStop& stop = stops_[i];
    const double d = HaversineMeters(position, stop.center);
    if (d < best_any || (d == best_any && stop.id < best_any_id)) {
      best_any = d;
      best_any_id = stop.id;
    }
    if ((d < best_known || (d == best_known && stop.id < best_known_id)) &&
        std::binary_search(stop.lines.begin(), stop.lines.end(), key)) {
      best_known = d;
      best_known_id = stop.id;
    }
  };
  // Stop longitudes are normalised; a window reaching the antimeridian
  // searches the whole latitude band.
  const double lon = NormalizeLon(position.lon);
  double min_lon = lon - lon_reach, max_lon = lon + lon_reach;
  if (!(min_lon > -180.0 && max_lon < 180.0)) {
    min_lon = -kInf;
    max_lon = kInf;
  }
  grid_.ForEachNear(min_lon, max_lon, min_lat, max_lat, consider);

  if (best_known_id >= 0 && best_known <= options_.max_assign_distance) {
    return best_known_id;
  }
  if (best_any <= options_.max_assign_distance) return best_any_id;
  return -1;
}

Result<BusStop> BusStopIndex::GetStop(int64_t id) const {
  if (id < 0 || static_cast<uint64_t>(id) >= stops_.size()) {
    return Status::NotFound("no bus stop with id " + std::to_string(id));
  }
  return stops_[static_cast<size_t>(id)];
}

}  // namespace geo
}  // namespace insight
