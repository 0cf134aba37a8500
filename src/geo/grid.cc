#include "geo/grid.h"

#include <cmath>
#include <limits>

namespace insight {
namespace geo {

namespace {

// A usable edge length for one axis: the requested one when it is positive,
// else the axis extent (one cell). Extents that overflow get one infinite
// cell, so every offset from the origin maps to cell 0.
double FitCell(double requested, double extent) {
  if (!std::isfinite(extent)) return std::numeric_limits<double>::infinity();
  if (requested > 0.0) return requested;
  return extent > 0.0 ? extent : 1.0;
}

double CellsAlong(double extent, double cell) {
  return std::floor(extent / cell) + 1.0;
}

int CellOf(double v, double origin, double cell, int n) {
  const double c = std::floor((v - origin) / cell);
  if (!(c >= 0.0)) return 0;
  if (c >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<int>(c);
}

}  // namespace

void CellGrid::Clear() {
  origin_x_ = origin_y_ = 0.0;
  cell_w_ = cell_h_ = 1.0;
  nx_ = ny_ = 0;
  cell_start_.clear();
  items_.clear();
  unplaced_.clear();
}

void CellGrid::Build(const std::vector<Key>& keys, double cell_w,
                     double cell_h) {
  Clear();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double min_x = kInf, max_x = -kInf, min_y = kInf, max_y = -kInf;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Key& k = keys[i];
    if (!std::isfinite(k.x) || !std::isfinite(k.y)) {
      unplaced_.push_back(static_cast<uint32_t>(i));
      continue;
    }
    min_x = std::fmin(min_x, k.x);
    max_x = std::fmax(max_x, k.x);
    min_y = std::fmin(min_y, k.y);
    max_y = std::fmax(max_y, k.y);
  }
  if (unplaced_.size() == keys.size()) return;

  origin_x_ = min_x;
  origin_y_ = min_y;
  const double extent_x = max_x - min_x;
  const double extent_y = max_y - min_y;
  cell_w_ = FitCell(cell_w, extent_x);
  cell_h_ = FitCell(cell_h, extent_y);
  // Keep the offsets array within a few entries per point.
  const double max_cells = 4.0 * static_cast<double>(keys.size()) + 64.0;
  while (CellsAlong(extent_x, cell_w_) * CellsAlong(extent_y, cell_h_) > max_cells) {
    cell_w_ *= 2.0;
    cell_h_ *= 2.0;
  }
  nx_ = static_cast<int>(CellsAlong(extent_x, cell_w_));
  ny_ = static_cast<int>(CellsAlong(extent_y, cell_h_));

  // Counting sort by cell; ascending i keeps each cell's items ascending.
  std::vector<uint32_t> cell_of(keys.size(), 0);
  cell_start_.assign(cell_count() + 1, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!std::isfinite(keys[i].x) || !std::isfinite(keys[i].y)) continue;
    const int cx = CellOf(keys[i].x, origin_x_, cell_w_, nx_);
    const int cy = CellOf(keys[i].y, origin_y_, cell_h_, ny_);
    cell_of[i] = static_cast<uint32_t>(cy * nx_ + cx);
    ++cell_start_[cell_of[i] + 1];
  }
  for (size_t c = 1; c < cell_start_.size(); ++c) cell_start_[c] += cell_start_[c - 1];
  items_.resize(keys.size() - unplaced_.size());
  std::vector<uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!std::isfinite(keys[i].x) || !std::isfinite(keys[i].y)) continue;
    items_[fill[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
}

bool CellGrid::CellRange(double lo, double hi, double origin, double cell,
                         int n, int* first, int* last) {
  if (n == 0) return false;
  double f = std::floor((lo - origin) / cell);
  double l = std::floor((hi - origin) / cell);
  // NaN or out-of-grid bounds clamp to the grid's edge on their side.
  if (!(f >= 0.0)) f = 0.0;
  if (!(l <= static_cast<double>(n - 1))) l = static_cast<double>(n - 1);
  if (f > l) return false;
  *first = static_cast<int>(f);
  *last = static_cast<int>(l);
  return true;
}

}  // namespace geo
}  // namespace insight
