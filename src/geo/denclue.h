#ifndef INSIGHT_GEO_DENCLUE_H_
#define INSIGHT_GEO_DENCLUE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "geo/grid.h"

namespace insight {
namespace geo {

/// DENCLUE density-based clustering (Hinneburg & Keim, KDD'98) specialised to
/// 2-D points in meters, as used in Section 4.1.2 to derive canonical bus
/// stops from noisy GPS stop reports: a Gaussian kernel (sigma = 20 m by
/// default) is placed on every point, each point hill-climbs the summed
/// density field to its *density attractor*, and points whose attractors are
/// within `attractor_merge_distance` form one cluster.
class Denclue {
 public:
  struct Options {
    /// Gaussian kernel bandwidth in meters (paper: 20 m).
    double sigma = 20.0;
    /// Attractors closer than this merge into one cluster.
    double attractor_merge_distance = 15.0;
    /// Hill-climbing step control.
    double step = 5.0;
    size_t max_iterations = 100;
    double convergence_epsilon = 0.05;
    /// Points whose attractor density is below `min_density` are labelled
    /// noise (cluster id -1). Density is in kernel units (each point
    /// contributes at most 1).
    double min_density = 0.0;
  };

  struct Point {
    double x = 0.0;
    double y = 0.0;
  };

  struct ClusterResult {
    /// Cluster id per input point; -1 means noise.
    std::vector<int> labels;
    /// Attractor position per cluster (density maximum).
    std::vector<Point> centers;
    size_t num_clusters = 0;
  };

  explicit Denclue(const Options& options) : options_(options) {}

  /// Clusters the points. Empty input yields an empty result. Kernel sums
  /// skip only points far enough away that their Gaussian term underflows
  /// to exactly +0.0, and add the rest in index order, so the result is
  /// bit-identical to summing over every point.
  ClusterResult Cluster(const std::vector<Point>& points) const;

  /// Kernel density estimate at (x, y) given the data set. Exposed for tests
  /// and for density-threshold tuning.
  double DensityAt(const std::vector<Point>& points, double x, double y) const;

 private:
  Point ClimbToAttractor(const std::vector<Point>& points, const CellGrid& grid,
                         Point start, std::vector<uint32_t>* candidates) const;

  Options options_;
};

}  // namespace geo
}  // namespace insight

#endif  // INSIGHT_GEO_DENCLUE_H_
