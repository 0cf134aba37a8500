#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/rng.h"
#include "geo/bus_stops.h"
#include "geo/denclue.h"
#include "geo/grid.h"
#include "geo/latlon.h"
#include "geo/quadtree.h"

namespace insight {
namespace geo {
namespace {

// ---------------------------------------------------------------------------
// LatLon math
// ---------------------------------------------------------------------------

TEST(LatLonTest, HaversineKnownDistance) {
  // O'Connell Bridge to Heuston Station is roughly 2.6 km.
  LatLon bridge{53.3472, -6.2592};
  LatLon heuston{53.3464, -6.2921};
  double d = HaversineMeters(bridge, heuston);
  EXPECT_GT(d, 2000.0);
  EXPECT_LT(d, 2500.0);
  EXPECT_DOUBLE_EQ(HaversineMeters(bridge, bridge), 0.0);
}

TEST(LatLonTest, BearingCardinalDirections) {
  LatLon origin{53.35, -6.26};
  EXPECT_NEAR(BearingDegrees(origin, {53.36, -6.26}), 0.0, 1.0);    // north
  EXPECT_NEAR(BearingDegrees(origin, {53.35, -6.20}), 90.0, 1.0);   // east
  EXPECT_NEAR(BearingDegrees(origin, {53.34, -6.26}), 180.0, 1.0);  // south
  EXPECT_NEAR(BearingDegrees(origin, {53.35, -6.32}), 270.0, 1.0);  // west
}

TEST(LatLonTest, AngleDifferenceWraps) {
  EXPECT_DOUBLE_EQ(AngleDifference(350.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(AngleDifference(90.0, 270.0), 180.0);
  EXPECT_DOUBLE_EQ(AngleDifference(45.0, 45.0), 0.0);
}

TEST(LatLonTest, ProjectionRoundTrip) {
  LocalProjection proj({53.35, -6.26});
  LatLon p{53.36, -6.28};
  double x, y;
  proj.ToXY(p, &x, &y);
  LatLon back = proj.FromXY(x, y);
  EXPECT_NEAR(back.lat, p.lat, 1e-9);
  EXPECT_NEAR(back.lon, p.lon, 1e-9);
  // 0.01 deg latitude is ~1.11 km.
  EXPECT_NEAR(y, 1112.0, 15.0);
}

// ---------------------------------------------------------------------------
// RegionQuadtree
// ---------------------------------------------------------------------------

class QuadtreeTest : public ::testing::Test {
 protected:
  RegionQuadtree MakeTree(size_t capacity = 2, int max_depth = 8) {
    RegionQuadtree::Options options;
    options.capacity = capacity;
    options.max_depth = max_depth;
    return RegionQuadtree(DublinBounds(), options);
  }
};

TEST_F(QuadtreeTest, SplitsWhenCapacityExceeded) {
  auto tree = MakeTree(2);
  // Cluster points in one corner to force local splits.
  ASSERT_TRUE(tree.Insert({53.29, -6.44}).ok());
  ASSERT_TRUE(tree.Insert({53.291, -6.441}).ok());
  ASSERT_TRUE(tree.Insert({53.292, -6.442}).ok());
  tree.Build();
  EXPECT_GT(tree.max_layer(), 0);
  EXPECT_GT(tree.num_regions(), 1u);
}

TEST_F(QuadtreeTest, RejectsOutOfBounds) {
  auto tree = MakeTree();
  EXPECT_FALSE(tree.Insert({0.0, 0.0}).ok());
  EXPECT_TRUE(tree.Insert({53.35, -6.26}).ok());
}

TEST_F(QuadtreeTest, FrozenAfterBuild) {
  auto tree = MakeTree();
  ASSERT_TRUE(tree.Insert({53.35, -6.26}).ok());
  tree.Build();
  EXPECT_EQ(tree.Insert({53.36, -6.27}).code(), StatusCode::kFailedPrecondition);
}

TEST_F(QuadtreeTest, LocateFindsContainingRegion) {
  auto tree = BuildDublinQuadtree(11, 400);
  LatLon p{53.3501, -6.2605};  // near the centre, deeply split
  RegionId leaf = tree.LocateLeaf(p);
  ASSERT_GE(leaf, 0);
  auto info = tree.GetRegion(leaf);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->box.Contains(p));
  EXPECT_TRUE(info->is_leaf);
  // Layer-0 lookup is always the root.
  EXPECT_EQ(tree.Locate(p, 0), 0);
  // Out of bounds -> invalid.
  EXPECT_EQ(tree.LocateLeaf({10.0, 10.0}), kInvalidRegion);
}

TEST_F(QuadtreeTest, LayerLookupClampsToLeaf) {
  auto tree = BuildDublinQuadtree(11, 400);
  // A point in an empty corner sits in a shallow leaf; asking for a deep
  // layer must return that leaf, not fail.
  LatLon corner{53.415, -6.06};
  RegionId at_deep = tree.Locate(corner, 10);
  RegionId leaf = tree.LocateLeaf(corner);
  EXPECT_EQ(at_deep, leaf);
}

TEST_F(QuadtreeTest, CoveringLayerTilesTheCity) {
  auto tree = BuildDublinQuadtree(13, 500);
  for (int layer : {1, 2, 3}) {
    auto regions = tree.RegionsCoveringLayer(layer);
    ASSERT_FALSE(regions.empty());
    // Random points must fall in exactly one covering region.
    Rng rng(99);
    auto bounds = DublinBounds();
    for (int i = 0; i < 200; ++i) {
      LatLon p{rng.Uniform(bounds.min_lat, bounds.max_lat),
               rng.Uniform(bounds.min_lon, bounds.max_lon)};
      int hits = 0;
      for (const auto& region : regions) {
        if (region.box.Contains(p)) ++hits;
      }
      EXPECT_EQ(hits, 1) << "layer " << layer;
    }
  }
}

TEST_F(QuadtreeTest, DublinTreeIsUnbalanced) {
  // Seeds concentrate near the centre (Figure 6), so leaves near the centre
  // must be deeper than corner leaves.
  auto tree = BuildDublinQuadtree(17, 800);
  auto centre_info = tree.GetRegion(tree.LocateLeaf({53.3498, -6.2603}));
  auto corner_info = tree.GetRegion(tree.LocateLeaf({53.4150, -6.0600}));
  ASSERT_TRUE(centre_info.ok());
  ASSERT_TRUE(corner_info.ok());
  EXPECT_GT(centre_info->layer, corner_info->layer);
}

TEST_F(QuadtreeTest, QueryFindsIntersectingRegions) {
  auto tree = BuildDublinQuadtree(11, 400);
  BoundingBox query{53.34, -6.28, 53.36, -6.24};
  auto regions = tree.Query(query, 3);
  ASSERT_FALSE(regions.empty());
  for (const auto& region : regions) {
    EXPECT_TRUE(region.box.Intersects(query));
  }
}

// ---------------------------------------------------------------------------
// DENCLUE
// ---------------------------------------------------------------------------

TEST(DenclueTest, SeparatesTwoBlobs) {
  Rng rng(5);
  std::vector<Denclue::Point> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.Gaussian(0.0, 8.0), rng.Gaussian(0.0, 8.0)});
    points.push_back({rng.Gaussian(300.0, 8.0), rng.Gaussian(0.0, 8.0)});
  }
  Denclue::Options options;
  options.sigma = 20.0;
  Denclue denclue(options);
  auto result = denclue.Cluster(points);
  EXPECT_EQ(result.num_clusters, 2u);
  // Points of each blob must share a label.
  for (size_t i = 2; i < points.size(); i += 2) {
    EXPECT_EQ(result.labels[i], result.labels[0]);
    EXPECT_EQ(result.labels[i + 1], result.labels[1]);
  }
}

TEST(DenclueTest, SingleBlobSingleCluster) {
  Rng rng(6);
  std::vector<Denclue::Point> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.Gaussian(50.0, 10.0), rng.Gaussian(-20.0, 10.0)});
  }
  Denclue denclue(Denclue::Options{});
  auto result = denclue.Cluster(points);
  EXPECT_EQ(result.num_clusters, 1u);
}

TEST(DenclueTest, EmptyInput) {
  Denclue denclue(Denclue::Options{});
  auto result = denclue.Cluster({});
  EXPECT_EQ(result.num_clusters, 0u);
  EXPECT_TRUE(result.labels.empty());
}

TEST(DenclueTest, DensityPeaksAtBlobCentre) {
  Rng rng(8);
  std::vector<Denclue::Point> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.Gaussian(0.0, 10.0), rng.Gaussian(0.0, 10.0)});
  }
  Denclue denclue(Denclue::Options{});
  EXPECT_GT(denclue.DensityAt(points, 0, 0), denclue.DensityAt(points, 200, 200));
}

// ---------------------------------------------------------------------------
// BusStopIndex
// ---------------------------------------------------------------------------

TEST(BusStopIndexTest, SplitsClusterByDirection) {
  // One physical stop area served in two directions: reports at the same
  // location with opposite entry angles must become two canonical stops.
  std::vector<StopReport> reports;
  LatLon stop{53.35, -6.26};
  Rng rng(9);
  LocalProjection proj(stop);
  for (int i = 0; i < 30; ++i) {
    StopReport r;
    r.position = proj.FromXY(rng.Gaussian(0, 8), rng.Gaussian(0, 8));
    r.line_id = 1;
    r.direction = i % 2 == 0;
    r.entry_angle_deg = r.direction ? 90.0 + rng.Gaussian(0, 8)
                                    : 270.0 + rng.Gaussian(0, 8);
    reports.push_back(r);
  }
  BusStopIndex index;
  size_t n = index.Build(reports);
  EXPECT_EQ(n, 2u);

  // Locate prefers the subcluster that has seen this (line, direction).
  int64_t eastbound = index.Locate(stop, 1, true);
  int64_t westbound = index.Locate(stop, 1, false);
  ASSERT_GE(eastbound, 0);
  ASSERT_GE(westbound, 0);
  EXPECT_NE(eastbound, westbound);
}

TEST(BusStopIndexTest, SeparateClustersForDistantStops) {
  std::vector<StopReport> reports;
  Rng rng(10);
  LatLon a{53.35, -6.26};
  LatLon b{53.36, -6.22};  // ~2.9 km away
  for (const LatLon& stop : {a, b}) {
    LocalProjection proj(stop);
    for (int i = 0; i < 20; ++i) {
      StopReport r;
      r.position = proj.FromXY(rng.Gaussian(0, 6), rng.Gaussian(0, 6));
      r.line_id = 7;
      r.direction = true;
      r.entry_angle_deg = 45.0;
      reports.push_back(r);
    }
  }
  BusStopIndex index;
  EXPECT_EQ(index.Build(reports), 2u);
  int64_t near_a = index.Locate(a, 7, true);
  int64_t near_b = index.Locate(b, 7, true);
  EXPECT_NE(near_a, near_b);
}

TEST(BusStopIndexTest, FarQueryReturnsNoStop) {
  std::vector<StopReport> reports;
  for (int i = 0; i < 10; ++i) {
    reports.push_back({{53.35, -6.26}, 1, true, 90.0});
  }
  BusStopIndex index;
  index.Build(reports);
  EXPECT_EQ(index.Locate({53.42, -6.05}, 1, true), -1);
}

TEST(BusStopIndexTest, EmptyIndex) {
  BusStopIndex index;
  EXPECT_EQ(index.Build({}), 0u);
  EXPECT_EQ(index.Locate({53.35, -6.26}, 1, true), -1);
  EXPECT_FALSE(index.GetStop(0).ok());
}

TEST(BusStopIndexTest, GetStopByDenseIdAndRebuildOnEmptyClears) {
  std::vector<StopReport> reports;
  for (const LatLon& at : {LatLon{53.35, -6.26}, LatLon{53.36, -6.22}}) {
    for (int i = 0; i < 5; ++i) reports.push_back({at, 3, false, 10.0});
  }
  BusStopIndex index;
  ASSERT_EQ(index.Build(reports), 2u);
  for (const BusStop& stop : index.stops()) {
    auto got = index.GetStop(stop.id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->id, stop.id);
    EXPECT_EQ(got->center, stop.center);
  }
  EXPECT_EQ(index.GetStop(-1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(index.GetStop(2).status().code(), StatusCode::kNotFound);
  ASSERT_GE(index.Locate({53.35, -6.26}, 3, false), 0);

  // Rebuilding from no reports leaves no stop and no grid cell behind.
  EXPECT_EQ(index.Build({}), 0u);
  EXPECT_TRUE(index.stops().empty());
  EXPECT_EQ(index.Locate({53.35, -6.26}, 3, false), -1);
  EXPECT_EQ(index.GetStop(0).status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// CellGrid
// ---------------------------------------------------------------------------

TEST(CellGridTest, VisitsEveryPointInsideTheBoxAndEveryUnplacedPoint) {
  Rng rng(21);
  std::vector<CellGrid::Key> keys;
  for (int i = 0; i < 500; ++i) keys.push_back({rng.Uniform(-50, 50), rng.Uniform(0, 20)});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  keys.push_back({nan, 1.0});
  keys.push_back({2.0, inf});
  // Requested cell sizes: normal, degenerate (zero, NaN) and far too small
  // for the point count.
  for (double cell : {3.0, 0.0, nan, 1e-9}) {
    CellGrid grid;
    grid.Build(keys, cell, cell);
    EXPECT_LE(grid.cell_count(), 4 * keys.size() + 64);
    for (int q = 0; q < 50; ++q) {
      double x0 = rng.Uniform(-60, 60), y0 = rng.Uniform(-5, 25);
      double x1 = x0 + rng.Uniform(0, 30), y1 = y0 + rng.Uniform(0, 10);
      std::multiset<uint32_t> seen;
      grid.ForEachNear(x0, x1, y0, y1, [&](uint32_t i) { seen.insert(i); });
      for (uint32_t i = 0; i < keys.size(); ++i) {
        const bool unplaced = !std::isfinite(keys[i].x) || !std::isfinite(keys[i].y);
        const bool inside = keys[i].x >= x0 && keys[i].x <= x1 &&
                            keys[i].y >= y0 && keys[i].y <= y1;
        if (unplaced || inside) {
          EXPECT_EQ(seen.count(i), 1u) << i;
        }
      }
    }
    // NaN bounds span the whole grid.
    size_t all = 0;
    grid.ForEachNear(nan, nan, -inf, inf, [&](uint32_t) { ++all; });
    EXPECT_EQ(all, keys.size());
  }
}

}  // namespace
}  // namespace geo
}  // namespace insight
