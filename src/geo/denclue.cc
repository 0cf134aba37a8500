#include "geo/denclue.h"

#include <algorithm>
#include <cmath>

namespace insight {
namespace geo {

namespace {

// std::exp(x) is exactly +0.0 for x below about -745.13, so the Gaussian
// term exp(-d^2 / 2 sigma^2) is +0.0 once d exceeds about 38.60 sigma.
// 38.7 leaves room for rounding in the exponent. Adding +0.0 (or -0.0, from
// 0 * negative coordinate) to a sum that starts at +0.0 never changes it, so
// points this far away can be skipped without changing a single bit.
constexpr double kUnderflowSigmas = 38.7;
// How far a climb may move from where its candidates were gathered before
// they are gathered again.
constexpr double kMarginSigmas = 1.3;

double Kernel(const Denclue::Point& p, double x, double y, double sigma2) {
  double dx = p.x - x;
  double dy = p.y - y;
  return std::exp(-(dx * dx + dy * dy) / (2.0 * sigma2));
}

// Indices of every point within `reach` of (x, y) on both axes (and possibly
// more), ascending: index order keeps the floating-point sums those of a
// full scan.
void Gather(const CellGrid& grid, double x, double y, double reach,
            std::vector<uint32_t>* out) {
  out->clear();
  grid.ForEachNear(x - reach, x + reach, y - reach, y + reach,
                   [out](uint32_t i) { out->push_back(i); });
  std::sort(out->begin(), out->end());
}

}  // namespace

double Denclue::DensityAt(const std::vector<Point>& points, double x,
                          double y) const {
  double sigma2 = options_.sigma * options_.sigma;
  double density = 0.0;
  for (const Point& p : points) density += Kernel(p, x, y, sigma2);
  return density;
}

Denclue::Point Denclue::ClimbToAttractor(const std::vector<Point>& points,
                                         const CellGrid& grid, Point start,
                                         std::vector<uint32_t>* candidates) const {
  // Mean-shift style ascent: move to the kernel-weighted mean of the data,
  // which follows the density gradient for Gaussian kernels. While the climb
  // stays within `margin` of `anchor`, every point within the underflow
  // radius of it is among the candidates gathered around `anchor`.
  const double margin = kMarginSigmas * std::fabs(options_.sigma);
  const double reach = kUnderflowSigmas * std::fabs(options_.sigma) + margin;
  Point cur = start;
  Point anchor = start;
  Gather(grid, anchor.x, anchor.y, reach, candidates);
  double sigma2 = options_.sigma * options_.sigma;
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    if (!(std::fabs(cur.x - anchor.x) <= margin &&
          std::fabs(cur.y - anchor.y) <= margin)) {
      anchor = cur;
      Gather(grid, anchor.x, anchor.y, reach, candidates);
    }
    double wx = 0.0, wy = 0.0, wsum = 0.0;
    for (uint32_t i : *candidates) {
      const Point& p = points[i];
      double w = Kernel(p, cur.x, cur.y, sigma2);
      wx += w * p.x;
      wy += w * p.y;
      wsum += w;
    }
    if (wsum <= 1e-12) break;
    Point next{wx / wsum, wy / wsum};
    double moved = std::hypot(next.x - cur.x, next.y - cur.y);
    cur = next;
    if (moved < options_.convergence_epsilon) break;
  }
  return cur;
}

Denclue::ClusterResult Denclue::Cluster(const std::vector<Point>& points) const {
  ClusterResult result;
  result.labels.assign(points.size(), -1);
  if (points.empty()) return result;

  std::vector<CellGrid::Key> keys(points.size());
  for (size_t i = 0; i < points.size(); ++i) keys[i] = {points[i].x, points[i].y};
  const double cell = (kUnderflowSigmas + kMarginSigmas) * std::fabs(options_.sigma);
  CellGrid grid;
  grid.Build(keys, cell, cell);

  const double sigma2 = options_.sigma * options_.sigma;
  std::vector<uint32_t> candidates;
  std::vector<Point> attractors(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    attractors[i] = ClimbToAttractor(points, grid, points[i], &candidates);
  }

  // Group attractors by proximity (single-linkage over the merge distance,
  // implemented greedily against the representative center).
  for (size_t i = 0; i < points.size(); ++i) {
    if (options_.min_density > 0.0) {
      Gather(grid, attractors[i].x, attractors[i].y,
             kUnderflowSigmas * std::fabs(options_.sigma), &candidates);
      double density = 0.0;
      for (uint32_t c : candidates) {
        density += Kernel(points[c], attractors[i].x, attractors[i].y, sigma2);
      }
      if (density < options_.min_density) {
        result.labels[i] = -1;
        continue;
      }
    }
    int assigned = -1;
    for (size_t c = 0; c < result.centers.size(); ++c) {
      double d = std::hypot(attractors[i].x - result.centers[c].x,
                            attractors[i].y - result.centers[c].y);
      if (d <= options_.attractor_merge_distance) {
        assigned = static_cast<int>(c);
        break;
      }
    }
    if (assigned < 0) {
      assigned = static_cast<int>(result.centers.size());
      result.centers.push_back(attractors[i]);
    }
    result.labels[i] = assigned;
  }
  result.num_clusters = result.centers.size();
  return result;
}

}  // namespace geo
}  // namespace insight
