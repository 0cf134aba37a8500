#ifndef INSIGHT_GEO_GRID_H_
#define INSIGHT_GEO_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace insight {
namespace geo {

/// Uniform grid over 2-D points in CSR form: the points of cell `c` are
/// `items_[cell_start_[c] .. cell_start_[c + 1])`, point indices in ascending
/// order. A point with a non-finite coordinate has no cell; it is kept in a
/// list that every query visits, so a query never misses a point it would
/// have to consider.
///
/// Cells are `cell_w` x `cell_h` as requested, enlarged (never shrunk) when
/// the grid would otherwise need more than a small multiple of the point
/// count. Queries name a box, not a cell count, so enlarged cells only add
/// candidates.
class CellGrid {
 public:
  struct Key {
    double x = 0.0;
    double y = 0.0;
  };

  /// Replaces the content with `keys`; point i is keys[i].
  void Build(const std::vector<Key>& keys, double cell_w, double cell_h);
  void Clear();

  /// Calls fn(i) for every point in a cell that overlaps
  /// [min_x, max_x] x [min_y, max_y] and for every point without a cell.
  /// Every point inside the box is visited; others may be. An infinite or
  /// NaN bound reaches the grid's edge on its side.
  template <typename Fn>
  void ForEachNear(double min_x, double max_x, double min_y, double max_y,
                   Fn&& fn) const {
    for (uint32_t i : unplaced_) fn(i);
    int x0 = 0, x1 = 0, y0 = 0, y1 = 0;
    if (!CellRange(min_x, max_x, origin_x_, cell_w_, nx_, &x0, &x1) ||
        !CellRange(min_y, max_y, origin_y_, cell_h_, ny_, &y0, &y1)) {
      return;
    }
    for (int cy = y0; cy <= y1; ++cy) {
      const size_t row = static_cast<size_t>(cy) * static_cast<size_t>(nx_);
      const uint32_t begin = cell_start_[row + static_cast<size_t>(x0)];
      const uint32_t end = cell_start_[row + static_cast<size_t>(x1) + 1];
      for (uint32_t k = begin; k < end; ++k) fn(items_[k]);
    }
  }

  size_t cell_count() const { return static_cast<size_t>(nx_) * static_cast<size_t>(ny_); }

 private:
  /// Cells [*first, *last] along one axis covering [lo, hi]; false when none.
  static bool CellRange(double lo, double hi, double origin, double cell, int n,
                        int* first, int* last);

  double origin_x_ = 0.0;
  double origin_y_ = 0.0;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  int nx_ = 0;
  int ny_ = 0;
  /// Row-major cells; one extra entry so cell c spans [start[c], start[c+1]).
  std::vector<uint32_t> cell_start_;
  std::vector<uint32_t> items_;
  std::vector<uint32_t> unplaced_;
};

}  // namespace geo
}  // namespace insight

#endif  // INSIGHT_GEO_GRID_H_
