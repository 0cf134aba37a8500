// Parameterized property tests (TEST_P sweeps) over the library's
// invariants: quadtree tiling, grid-indexed stop lookup and DENCLUE against
// brute-force references, partition balance, window-size bounds, DES work
// conservation, regression exactness, MapReduce determinism and the
// statistics job against its string-typed reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <numeric>

#include "batch/mapreduce.h"
#include "batch/statistics_job.h"
#include "cep/engine.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/dynamic.h"
#include "core/partitioning.h"
#include "core/system.h"
#include "geo/bus_stops.h"
#include "geo/denclue.h"
#include "geo/quadtree.h"
#include "model/regression.h"
#include "sim/cluster_sim.h"
#include "traffic/generator.h"

namespace insight {
namespace {

// ---------------------------------------------------------------------------
// Quadtree invariants over (seed, capacity)
// ---------------------------------------------------------------------------

class QuadtreeProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(QuadtreeProperty, EveryPointHasExactlyOneLeaf) {
  auto [seed, capacity] = GetParam();
  geo::RegionQuadtree::Options options;
  options.capacity = capacity;
  auto tree = geo::BuildDublinQuadtree(seed, 400, options);
  Rng rng(seed ^ 0xabc);
  auto bounds = geo::DublinBounds();
  auto leaves = tree.Leaves();
  for (int i = 0; i < 100; ++i) {
    geo::LatLon p{rng.Uniform(bounds.min_lat, bounds.max_lat),
                  rng.Uniform(bounds.min_lon, bounds.max_lon)};
    geo::RegionId leaf = tree.LocateLeaf(p);
    ASSERT_GE(leaf, 0);
    int containing = 0;
    for (const auto& region : leaves) {
      if (region.box.Contains(p)) {
        ++containing;
        EXPECT_EQ(region.id, leaf);
      }
    }
    EXPECT_EQ(containing, 1);
  }
}

TEST_P(QuadtreeProperty, LayerLookupIsPrefixOfLeafPath) {
  auto [seed, capacity] = GetParam();
  geo::RegionQuadtree::Options options;
  options.capacity = capacity;
  auto tree = geo::BuildDublinQuadtree(seed, 400, options);
  Rng rng(seed ^ 0x123);
  auto bounds = geo::DublinBounds();
  for (int i = 0; i < 50; ++i) {
    geo::LatLon p{rng.Uniform(bounds.min_lat, bounds.max_lat),
                  rng.Uniform(bounds.min_lon, bounds.max_lon)};
    // The region at layer k must contain the region at layer k+1.
    for (int layer = 0; layer < tree.max_layer(); ++layer) {
      auto coarse = tree.GetRegion(tree.Locate(p, layer));
      auto fine = tree.GetRegion(tree.Locate(p, layer + 1));
      ASSERT_TRUE(coarse.ok());
      ASSERT_TRUE(fine.ok());
      EXPECT_TRUE(coarse->box.Contains(fine->box.Center()));
      EXPECT_LE(coarse->layer, fine->layer);
    }
  }
}

TEST_P(QuadtreeProperty, LeafCapacityRespected) {
  auto [seed, capacity] = GetParam();
  geo::RegionQuadtree::Options options;
  options.capacity = capacity;
  options.max_depth = 12;
  auto tree = geo::BuildDublinQuadtree(seed, 400, options);
  for (const auto& leaf : tree.Leaves()) {
    if (leaf.layer < 12) {
      EXPECT_LE(leaf.seed_count, capacity)
          << "non-depth-limited leaf over capacity";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuadtreeProperty,
                         ::testing::Combine(::testing::Values(1u, 7u, 42u, 99u),
                                            ::testing::Values(4u, 8u, 16u)));

// ---------------------------------------------------------------------------
// Grid-indexed stop lookup and DENCLUE against brute-force references
// ---------------------------------------------------------------------------

// The linear stop scan the grid replaced: haversine against every stop in id
// order, keeping the first strict minimum.
int64_t ReferenceLocate(const geo::BusStopIndex& index, double max_distance,
                        const geo::LatLon& position, int line_id, bool direction) {
  const std::pair<int, bool> key{line_id, direction};
  double best_known = std::numeric_limits<double>::infinity();
  int64_t best_known_id = -1;
  double best_any = std::numeric_limits<double>::infinity();
  int64_t best_any_id = -1;
  for (const geo::BusStop& stop : index.stops()) {
    double d = geo::HaversineMeters(position, stop.center);
    if (d < best_any) {
      best_any = d;
      best_any_id = stop.id;
    }
    if (std::binary_search(stop.lines.begin(), stop.lines.end(), key) &&
        d < best_known) {
      best_known = d;
      best_known_id = stop.id;
    }
  }
  if (best_known_id >= 0 && best_known <= max_distance) return best_known_id;
  if (best_any <= max_distance) return best_any_id;
  return -1;
}

// DENCLUE summing every kernel over every point.
geo::Denclue::ClusterResult ReferenceCluster(
    const geo::Denclue::Options& options,
    const std::vector<geo::Denclue::Point>& points) {
  using Point = geo::Denclue::Point;
  const double sigma2 = options.sigma * options.sigma;
  auto density = [&](double x, double y) {
    double sum = 0.0;
    for (const Point& p : points) {
      double dx = p.x - x;
      double dy = p.y - y;
      sum += std::exp(-(dx * dx + dy * dy) / (2.0 * sigma2));
    }
    return sum;
  };
  auto climb = [&](Point cur) {
    for (size_t iter = 0; iter < options.max_iterations; ++iter) {
      double wx = 0.0, wy = 0.0, wsum = 0.0;
      for (const Point& p : points) {
        double dx = p.x - cur.x;
        double dy = p.y - cur.y;
        double w = std::exp(-(dx * dx + dy * dy) / (2.0 * sigma2));
        wx += w * p.x;
        wy += w * p.y;
        wsum += w;
      }
      if (wsum <= 1e-12) break;
      Point next{wx / wsum, wy / wsum};
      double moved = std::hypot(next.x - cur.x, next.y - cur.y);
      cur = next;
      if (moved < options.convergence_epsilon) break;
    }
    return cur;
  };
  geo::Denclue::ClusterResult result;
  result.labels.assign(points.size(), -1);
  for (const Point& start : points) {
    Point a = climb(start);
    size_t i = static_cast<size_t>(&start - points.data());
    if (options.min_density > 0.0 && density(a.x, a.y) < options.min_density) continue;
    int assigned = -1;
    for (size_t c = 0; c < result.centers.size(); ++c) {
      if (std::hypot(a.x - result.centers[c].x, a.y - result.centers[c].y) <=
          options.attractor_merge_distance) {
        assigned = static_cast<int>(c);
        break;
      }
    }
    if (assigned < 0) {
      assigned = static_cast<int>(result.centers.size());
      result.centers.push_back(a);
    }
    result.labels[i] = assigned;
  }
  result.num_clusters = result.centers.size();
  return result;
}

void ExpectBitIdentical(const geo::Denclue::ClusterResult& got,
                        const geo::Denclue::ClusterResult& want) {
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.num_clusters, want.num_clusters);
  ASSERT_EQ(got.centers.size(), want.centers.size());
  EXPECT_EQ(std::memcmp(got.centers.data(), want.centers.data(),
                        got.centers.size() * sizeof(geo::Denclue::Point)),
            0);
}

// Stop reports of a generated city (the city_monitoring scale).
std::vector<geo::StopReport> CityStopReports(uint64_t seed, size_t samples) {
  traffic::TraceGenerator::Options options;
  options.num_buses = 150;
  options.num_lines = 20;
  options.start_hour = 7;
  options.end_hour = 13;
  options.seed = seed;
  traffic::TraceGenerator generator(options);
  return generator.CollectStopReports(samples);
}

// Seen (line, direction) pairs most of the time, unseen ones otherwise.
std::pair<int, bool> RandomLine(const geo::BusStopIndex& index, Rng* rng) {
  if (rng->NextUint(4) == 0) {
    return {1000 + static_cast<int>(rng->NextUint(5)), rng->NextUint(2) == 0};
  }
  const auto& stop = index.stops()[rng->NextUint(index.stops().size())];
  return stop.lines[rng->NextUint(stop.lines.size())];
}

class StopLocateProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(StopLocateProperty, GridMatchesLinearScan) {
  auto [seed, max_distance] = GetParam();
  geo::BusStopIndex::Options options;
  options.max_assign_distance = max_distance;
  geo::BusStopIndex index(options);
  ASSERT_GT(index.Build(CityStopReports(seed, 2000)), 0u);
  Rng rng(seed ^ 0x5709);
  const auto& stops = index.stops();
  const geo::BoundingBox city = geo::DublinBounds();
  size_t assigned = 0;
  auto check = [&](const geo::LatLon& p) {
    auto [line, direction] = RandomLine(index, &rng);
    int64_t got = index.Locate(p, line, direction);
    EXPECT_EQ(got, ReferenceLocate(index, max_distance, p, line, direction))
        << "at " << p.lat << "," << p.lon << " line " << line << "/" << direction;
    if (got >= 0) ++assigned;
  };
  for (int i = 0; i < 800; ++i) {  // near a stop
    const geo::BusStop& stop = stops[rng.NextUint(stops.size())];
    geo::LocalProjection proj(stop.center);
    check(proj.FromXY(rng.Gaussian() * max_distance, rng.Gaussian() * max_distance));
  }
  for (int i = 0; i < 800; ++i) {  // anywhere in and around the city
    check({rng.Uniform(city.min_lat - 0.05, city.max_lat + 0.05),
           rng.Uniform(city.min_lon - 0.05, city.max_lon + 0.05)});
  }
  for (int i = 0; i < 200; ++i) {  // far outside, longitudes past +-180 too
    check({rng.Uniform(-90.0, 90.0), rng.Uniform(-540.0, 540.0)});
  }
  EXPECT_GT(assigned, 300u);  // the sweep exercises real assignments
}

INSTANTIATE_TEST_SUITE_P(Sweep, StopLocateProperty,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(250.0, 40.0, 1500.0)));

TEST(StopLocateEdgeCases, QueryExactlyAtCutoff) {
  // max_assign_distance set to one stop's exact haversine from the query:
  // that stop is on the boundary and must still be found.
  const auto reports = CityStopReports(4, 2000);
  geo::BusStopIndex probe;
  ASSERT_GT(probe.Build(reports), 0u);
  Rng rng(44);
  for (int trial = 0; trial < 6; ++trial) {
    const geo::BusStop& stop = probe.stops()[rng.NextUint(probe.stops().size())];
    geo::LocalProjection proj(stop.center);
    const double bearing = rng.Uniform(0.0, 6.283185307179586);
    const double radius = rng.Uniform(20.0, 400.0);
    const geo::LatLon q =
        proj.FromXY(radius * std::cos(bearing), radius * std::sin(bearing));
    geo::BusStopIndex::Options options;
    options.max_assign_distance = geo::HaversineMeters(q, stop.center);
    geo::BusStopIndex index(options);
    index.Build(reports);
    ASSERT_EQ(index.stops().size(), probe.stops().size());
    for (const auto& [line, direction] :
         {stop.lines.front(), std::pair<int, bool>{999, false}}) {
      int64_t got = index.Locate(q, line, direction);
      EXPECT_EQ(got, ReferenceLocate(index, options.max_assign_distance, q, line,
                                     direction));
      EXPECT_GE(got, 0);
    }
  }
}

TEST(StopLocateEdgeCases, IdenticalCentresTieToLowestId) {
  // Two reports per (line, direction) at one position, opposite entry angles:
  // two stops whose centres are bit-identical.
  const geo::LatLon at{53.35, -6.26};
  std::vector<geo::StopReport> reports = {
      {at, 1, true, 90.0}, {at, 1, true, 90.0},
      {at, 2, true, 270.0}, {at, 2, true, 270.0}};
  geo::BusStopIndex index;
  ASSERT_EQ(index.Build(reports), 2u);
  ASSERT_EQ(index.stops()[0].center, index.stops()[1].center);
  const int64_t line2 = index.stops()[0].lines.front().first == 2 ? 0 : 1;
  const geo::LatLon q{53.3503, -6.2601};
  for (int line : {1, 2, 7}) {
    EXPECT_EQ(index.Locate(q, line, true),
              ReferenceLocate(index, 250.0, q, line, true));
  }
  EXPECT_EQ(index.Locate(q, 7, true), 0);  // unseen line: tie -> lowest id
  EXPECT_EQ(index.Locate(q, 2, true), line2);
}

TEST(StopLocateEdgeCases, StopsAcrossTheAntimeridian) {
  // Stops on both sides of longitude 180, queried with raw longitudes on
  // either side and one turn off: the search window must wrap.
  std::vector<geo::StopReport> reports;
  for (const auto& [at, line] : {std::pair<geo::LatLon, int>{{-17.8, 179.9995}, 1},
                                 {{-17.8, -179.9995}, 2},
                                 {{-17.8006, 179.998}, 3}}) {
    for (int i = 0; i < 4; ++i) reports.push_back({at, line, true, 45.0});
  }
  geo::BusStopIndex index;
  ASSERT_EQ(index.Build(reports), 3u);
  Rng rng(180);
  size_t assigned = 0;
  for (int i = 0; i < 2000; ++i) {
    const double turn = 360.0 * static_cast<double>(rng.UniformInt(-1, 1));
    const geo::LatLon p{rng.Uniform(-17.802, -17.798),
                        rng.Uniform(179.996, 180.004) + turn};
    const int line = 1 + static_cast<int>(rng.NextUint(4));
    const int64_t got = index.Locate(p, line, true);
    EXPECT_EQ(got, ReferenceLocate(index, 250.0, p, line, true))
        << "at " << p.lat << "," << p.lon << " line " << line;
    if (got >= 0) ++assigned;
  }
  EXPECT_GT(assigned, 500u);
}

TEST(StopLocateEdgeCases, EmptyIndexAndNonFinitePositions) {
  geo::BusStopIndex empty;
  EXPECT_EQ(empty.Build({}), 0u);
  EXPECT_EQ(empty.Locate({53.35, -6.26}, 1, true), -1);

  geo::BusStopIndex index;
  ASSERT_GT(index.Build(CityStopReports(5, 500)), 0u);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const geo::LatLon centre = index.stops()[0].center;
  for (const geo::LatLon& p :
       {geo::LatLon{nan, centre.lon}, geo::LatLon{centre.lat, nan},
        geo::LatLon{inf, centre.lon}, geo::LatLon{-inf, centre.lon},
        geo::LatLon{centre.lat, inf}, geo::LatLon{centre.lat, -inf},
        geo::LatLon{nan, nan}}) {
    const auto line = index.stops()[0].lines.front();
    EXPECT_EQ(index.Locate(p, line.first, line.second), -1);
    EXPECT_EQ(ReferenceLocate(index, 250.0, p, line.first, line.second), -1);
  }
  EXPECT_GE(index.Locate(centre, 1, true), 0);
}

class DenclueProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenclueProperty, GridClusteringBitIdenticalToAllPoints) {
  const auto reports = CityStopReports(GetParam(), 1000);
  geo::LocalProjection proj(reports.front().position);
  std::vector<geo::Denclue::Point> points(reports.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    proj.ToXY(reports[i].position, &points[i].x, &points[i].y);
  }
  geo::Denclue::Options defaults;
  geo::Denclue::Options narrow;
  narrow.sigma = 6.0;
  narrow.min_density = 1.5;
  for (const auto& options : {defaults, narrow}) {
    ExpectBitIdentical(geo::Denclue(options).Cluster(points),
                       ReferenceCluster(options, points));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DenclueProperty, ::testing::Values(1u, 2u, 3u));

TEST(DenclueExactness, TightClusterWithFarOutliers) {
  Rng rng(31);
  std::vector<geo::Denclue::Point> points;
  for (int i = 0; i < 200; ++i) points.push_back({rng.Gaussian() * 3.0, rng.Gaussian() * 3.0});
  for (int i = 0; i < 20; ++i) {
    points.push_back({rng.Uniform(-1e5, 1e5), rng.Uniform(-1e5, 1e5)});
  }
  points.push_back({5e6, -5e6});
  geo::Denclue::Options options;
  ExpectBitIdentical(geo::Denclue(options).Cluster(points),
                     ReferenceCluster(options, points));
  options.min_density = 3.0;
  ExpectBitIdentical(geo::Denclue(options).Cluster(points),
                     ReferenceCluster(options, points));
}

// ---------------------------------------------------------------------------
// Algorithm 1 balance over (seed, engines)
// ---------------------------------------------------------------------------

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(PartitionProperty, MaxEngineRateBoundedByLptGuarantee) {
  auto [seed, engines] = GetParam();
  Rng rng(seed);
  std::vector<core::RegionRate> rates;
  double total = 0, max_rate = 0;
  for (int64_t region = 0; region < 150; ++region) {
    double rate = rng.Uniform(0.5, 50.0);
    rates.push_back({region, rate});
    total += rate;
    max_rate = std::max(max_rate, rate);
  }
  auto assignment = core::PartitionRegions(rates, engines);
  ASSERT_TRUE(assignment.ok());
  auto engine_rates = core::EngineRates(*assignment, rates);
  double optimal_lb = std::max(total / engines, max_rate);
  for (double rate : engine_rates) {
    // Greedy LPT is within (4/3 - 1/3m) of optimal makespan; allow 4/3 plus
    // the single-region indivisibility slack.
    EXPECT_LE(rate, optimal_lb * 4.0 / 3.0 + max_rate);
  }
  // Conservation: nothing lost or duplicated.
  double assigned = std::accumulate(engine_rates.begin(), engine_rates.end(), 0.0);
  EXPECT_NEAR(assigned, total, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionProperty,
                         ::testing::Combine(::testing::Values(3u, 17u, 88u),
                                            ::testing::Values(2, 5, 9, 16)));

// ---------------------------------------------------------------------------
// CEP window-size invariants over (window kind, size)
// ---------------------------------------------------------------------------

class WindowProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(WindowProperty, RetainedNeverExceedsDeclaredLength) {
  size_t window = GetParam();
  cep::Engine engine;
  ASSERT_TRUE(engine
                  .RegisterEventType("e", {{"k", cep::ValueType::kInt},
                                           {"v", cep::ValueType::kDouble}})
                  .ok());
  auto stmt = engine.AddStatement(
      "@Trigger(e) SELECT avg(x.v) AS m FROM e.std:groupwin(k).win:length(" +
          std::to_string(window) + ") as x GROUP BY x.k",
      "w");
  ASSERT_TRUE(stmt.ok());
  Rng rng(window);
  constexpr int kKeys = 5;
  for (int i = 0; i < 500; ++i) {
    engine.SendEvent(engine.NewEvent("e")
                         .Set("k", static_cast<int64_t>(rng.NextUint(kKeys)))
                         .Set("v", rng.NextDouble())
                         .Build());
    EXPECT_LE((*stmt)->RetainedEvents(), window * kKeys);
  }
}

TEST_P(WindowProperty, WindowAverageMatchesReference) {
  size_t window = GetParam();
  cep::Engine engine;
  ASSERT_TRUE(engine
                  .RegisterEventType("e", {{"k", cep::ValueType::kInt},
                                           {"v", cep::ValueType::kDouble}})
                  .ok());
  auto stmt = engine.AddStatement(
      "@Trigger(e) SELECT avg(x.v) AS m FROM e.win:length(" +
          std::to_string(window) + ") as x",
      "w");
  ASSERT_TRUE(stmt.ok());
  double last_avg = 0;
  (*stmt)->AddListener(
      [&](const cep::MatchResult& m) { last_avg = m.Get("m")->AsDouble(); });
  Rng rng(window * 3 + 1);
  std::deque<double> reference;
  for (int i = 0; i < 300; ++i) {
    double v = rng.Uniform(-10, 10);
    reference.push_back(v);
    if (reference.size() > window) reference.pop_front();
    engine.SendEvent(engine.NewEvent("e")
                         .Set("k", int64_t{0})
                         .Set("v", v)
                         .Build());
    double expected =
        std::accumulate(reference.begin(), reference.end(), 0.0) /
        static_cast<double>(reference.size());
    ASSERT_NEAR(last_avg, expected, 1e-9) << "at event " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowProperty,
                         ::testing::Values(1u, 2u, 7u, 32u, 100u));

// ---------------------------------------------------------------------------
// DES work conservation over (nodes, engines)
// ---------------------------------------------------------------------------

class SimProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SimProperty, WorkConservedUnderSaturation) {
  auto [nodes, engines] = GetParam();
  sim::ClusterSimulation::Config config;
  config.node_cores = std::vector<int>(static_cast<size_t>(nodes), 1);
  config.network_latency_micros = 0;
  config.deserialization_micros = 0;
  config.duration_micros = 2'000'000;
  const double service = 500.0;
  std::vector<sim::ClusterSimulation::EngineSpec> specs;
  for (int e = 0; e < engines; ++e) specs.push_back({e % nodes, service});
  sim::ClusterSimulation simulation(config, specs);
  // Saturating load.
  auto result = simulation.Run(
      50000.0, [engines = engines](uint64_t i, std::vector<int>* t) {
        t->push_back(static_cast<int>(i % static_cast<uint64_t>(engines)));
      });
  ASSERT_TRUE(result.ok());
  // Usable core-time: an engine is a serial server, so a node can only be
  // as busy as min(cores, engines hosted there).
  std::vector<int> engines_on_node(static_cast<size_t>(nodes), 0);
  for (const auto& spec : specs) ++engines_on_node[static_cast<size_t>(spec.node)];
  double usable_core_seconds = 0.0;
  for (int hosted : engines_on_node) {
    usable_core_seconds += 2.0 * std::min(1, hosted);
  }
  double work_seconds =
      static_cast<double>(result->copies_processed) * service / 1e6;
  // Under saturation, work done is close to the usable core time (within
  // 15%: start-up and quantization effects), and never exceeds it.
  EXPECT_LE(work_seconds, usable_core_seconds * 1.05);
  EXPECT_GE(work_seconds, usable_core_seconds * 0.85);
}

TEST_P(SimProperty, ThroughputMonotoneInNodes) {
  auto [nodes, engines] = GetParam();
  if (nodes < 2) return;
  auto run = [&](int n) {
    sim::ClusterSimulation::Config config;
    config.node_cores = std::vector<int>(static_cast<size_t>(n), 1);
    config.duration_micros = 2'000'000;
    config.network_latency_micros = 0;
    config.deserialization_micros = 0;
    std::vector<sim::ClusterSimulation::EngineSpec> specs;
    for (int e = 0; e < engines; ++e) specs.push_back({e % n, 400.0});
    sim::ClusterSimulation simulation(config, specs);
    auto result = simulation.Run(
        20000.0, [engines = engines](uint64_t i, std::vector<int>* t) {
          t->push_back(static_cast<int>(i % static_cast<uint64_t>(engines)));
        });
    EXPECT_TRUE(result.ok());
    return result->copies_processed;
  };
  EXPECT_GE(run(nodes), run(nodes - 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimProperty,
                         ::testing::Combine(::testing::Values(1, 3, 7),
                                            ::testing::Values(1, 4, 12)));

// ---------------------------------------------------------------------------
// Regression exactness over degrees
// ---------------------------------------------------------------------------

class RegressionProperty : public ::testing::TestWithParam<int> {};

TEST_P(RegressionProperty, RecoversRandomPolynomialExactly) {
  int degree = GetParam();
  Rng rng(static_cast<uint64_t>(degree) * 31 + 7);
  model::PolynomialRegression truth(2, degree);
  std::vector<double> coefficients(truth.num_terms());
  for (double& c : coefficients) c = rng.Uniform(-3, 3);
  ASSERT_TRUE(truth.SetCoefficients(coefficients).ok());

  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (size_t i = 0; i < truth.num_terms() * 6; ++i) {
    std::vector<double> sample{rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    y.push_back(truth.Predict(sample));
    x.push_back(std::move(sample));
  }
  model::PolynomialRegression fitted(2, degree);
  ASSERT_TRUE(fitted.Fit(x, y).ok());
  for (int i = 0; i < 20; ++i) {
    std::vector<double> probe{rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    EXPECT_NEAR(fitted.Predict(probe), truth.Predict(probe), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RegressionProperty, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// MapReduce determinism over reducer counts
// ---------------------------------------------------------------------------

/// Emits (key, value) for each "key value" record.
class KeyValueMapper : public batch::Mapper {
 public:
  void Map(std::string_view record, batch::Emitter* e) override {
    auto parts = SplitWhitespace(record);
    if (parts.size() == 2) e->Emit(parts[0], parts[1]);
  }
};

class MapReduceProperty : public ::testing::TestWithParam<int> {};

TEST_P(MapReduceProperty, OutputIndependentOfReducerCount) {
  int reducers = GetParam();
  dfs::MiniDfs fs;
  Rng rng(11);
  std::string data;
  for (int i = 0; i < 300; ++i) {
    data += "key" + std::to_string(rng.NextUint(20)) + " " +
            std::to_string(rng.NextUint(100)) + "\n";
  }
  ASSERT_TRUE(fs.Append("/in", data).ok());

  auto run = [&](int r) {
    batch::MapReduceJob::Spec spec;
    spec.input_paths = {"/in"};
    spec.output_dir = "/out" + std::to_string(r);
    spec.num_reducers = r;
    spec.mapper = [] { return std::make_unique<KeyValueMapper>(); };
    spec.reduce = [](const std::string& key,
                     const std::vector<std::string>& values,
                     batch::Emitter* e) {
      long long total = 0;
      for (const auto& v : values) total += *ParseInt(v);
      e->Emit(key, std::to_string(total));
    };
    EXPECT_TRUE(batch::MapReduceJob::Run(&fs, spec).ok());
    auto output = batch::ReadJobOutput(fs, spec.output_dir);
    EXPECT_TRUE(output.ok());
    return std::map<std::string, std::string>(output->begin(), output->end());
  };
  auto baseline = run(1);
  EXPECT_EQ(run(reducers), baseline);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MapReduceProperty,
                         ::testing::Values(2, 3, 7, 16));

// ---------------------------------------------------------------------------
// Statistics job against the string-typed reference
// ---------------------------------------------------------------------------

/// One statistics output row.
struct StatRow {
  std::string key;
  double mean = 0.0;
  double stdev = 0.0;
  long long count = 0;
};
using StatParts = std::vector<std::vector<StatRow>>;  // [part file][row]

/// The partitioner of batch::MapReduceJob (FNV-1a).
uint64_t Fnv1a(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The statistics job as it was computed before in-mapper combining: every
/// record through ParseCsvLine, every value through ParseDouble, one
/// (count, sum, sumsq) per key, then the job's partitioning and per-part key
/// order.
StatParts ReferenceStatistics(const dfs::MiniDfs& fs,
                              const batch::StatisticsJobConfig& config) {
  struct Sums {
    double count = 0, sum = 0, sumsq = 0;
  };
  int max_col = std::max(config.hour_col, config.date_type_col);
  for (const batch::Statistic& stat : config.statistics) {
    max_col = std::max({max_col, stat.value_col, stat.location_col});
  }
  std::map<std::string, Sums> sums;
  for (const std::string& path : config.input_paths) {
    for (const std::string& record : Split(*fs.ReadAll(path), '\n')) {
      auto fields = ParseCsvLine(record);
      if (!fields.ok() || static_cast<int>(fields->size()) <= max_col) continue;
      const std::string& hour = (*fields)[static_cast<size_t>(config.hour_col)];
      const std::string& date_type =
          (*fields)[static_cast<size_t>(config.date_type_col)];
      for (const batch::Statistic& stat : config.statistics) {
        auto value = ParseDouble((*fields)[static_cast<size_t>(stat.value_col)]);
        if (!value.ok()) continue;
        std::string key = stat.name;
        key += '|';
        key += (*fields)[static_cast<size_t>(stat.location_col)];
        key += '|';
        key += hour;
        key += '|';
        key += date_type;
        Sums& s = sums[key];
        s.count += 1;
        s.sum += *value;
        s.sumsq += *value * *value;
      }
    }
  }
  StatParts parts(static_cast<size_t>(config.num_reducers));
  for (const auto& [key, s] : sums) {  // std::map: key order within each part
    double mean = s.count == 0 ? 0.0 : s.sum / s.count;
    double var = s.sumsq / s.count - mean * mean;
    double stdev = s.count < 2 || var <= 0 ? 0.0 : std::sqrt(var);
    parts[Fnv1a(key) % parts.size()].push_back(
        {key, mean, stdev, static_cast<long long>(s.count)});
  }
  return parts;
}

/// The job's part files, row by row ("key\tmean,stdev,count").
StatParts ReadStatParts(const dfs::MiniDfs& fs, const std::string& dir) {
  StatParts parts;
  for (const std::string& path : fs.List(dir + "/part-r-")) {
    parts.emplace_back();
    for (const std::string& line : Split(*fs.ReadAll(path), '\n')) {
      if (line.empty()) continue;
      size_t tab = line.rfind('\t');
      auto value = Split(line.substr(tab + 1), ',');
      EXPECT_EQ(value.size(), 3u) << line;
      if (value.size() != 3) continue;
      parts.back().push_back({line.substr(0, tab), std::strtod(value[0].c_str(), nullptr),
                              std::strtod(value[1].c_str(), nullptr),
                              std::stoll(value[2])});
    }
  }
  return parts;
}

void ExpectClose(double got, double want, double tolerance, const std::string& what) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what << ": " << got;
  } else if (std::isinf(want)) {
    EXPECT_EQ(got, want) << what;
  } else {
    EXPECT_NEAR(got, want, tolerance) << what;
  }
}

/// Same keys in the same part-file order, equal counts; means within
/// 1e-12 relative and stdevs within 1e-6 absolute (sumsq/n - mean^2 cancels,
/// so a near-zero stdev's low bits depend on summation order).
void ExpectMatchesReference(const StatParts& got, const StatParts& want) {
  ASSERT_EQ(got.size(), want.size());
  size_t rows = 0;
  for (size_t p = 0; p < want.size(); ++p) {
    ASSERT_EQ(got[p].size(), want[p].size()) << "part " << p;
    for (size_t i = 0; i < want[p].size(); ++i) {
      const StatRow& g = got[p][i];
      const StatRow& w = want[p][i];
      ASSERT_EQ(g.key, w.key) << "part " << p << " row " << i;
      EXPECT_EQ(g.count, w.count) << w.key;
      ExpectClose(g.mean, w.mean, 1e-12 * std::max(1.0, std::fabs(w.mean)),
                  w.key + " mean");
      ExpectClose(g.stdev, w.stdev, 1e-6, w.key + " stdev");
      ++rows;
    }
  }
  EXPECT_GT(rows, 0u);
}

/// An enriched history as the system writes it to the DFS.
std::vector<traffic::BusTrace> EnrichedHistory(uint64_t seed, size_t traces) {
  traffic::TraceGenerator::Options options;
  options.num_buses = 40;
  options.num_lines = 8;
  options.start_hour = 6;
  options.end_hour = 22;
  options.incidents_per_hour = 3.0;
  options.seed = seed;
  geo::RegionQuadtree quadtree = geo::BuildDublinQuadtree(seed);
  traffic::TraceGenerator sampler(options);
  geo::BusStopIndex stops;
  stops.Build(sampler.CollectStopReports(500));
  options.seed = seed + 1;
  traffic::TraceGenerator generator(options);
  std::vector<traffic::BusTrace> history = generator.GenerateAll(traces);
  core::EnrichTraces(&history, quadtree, stops);
  return history;
}

batch::StatisticsJobConfig SystemStatisticsConfig(const std::string& input,
                                                  int reducers) {
  batch::StatisticsJobConfig config;
  config.input_paths = {input};
  config.output_dir = "/stats";
  config.hour_col = traffic::TraceCsv::kHour;
  config.date_type_col = traffic::TraceCsv::kDateType;
  config.statistics = core::DynamicRuleManager::Statistics();
  config.num_reducers = reducers;
  return config;
}

class StatisticsReferenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatisticsReferenceProperty, EnrichedHistoryMatchesReference) {
  const uint64_t seed = GetParam();
  std::vector<traffic::BusTrace> history = EnrichedHistory(seed, 6000);
  for (size_t chunk_size : {size_t{4} << 20, size_t{8192}, size_t{97}}) {
    SCOPED_TRACE("chunk_size " + std::to_string(chunk_size));
    dfs::MiniDfs::Options options;
    options.chunk_size = chunk_size;
    dfs::MiniDfs fs(options);
    storage::TableStore store;
    core::DynamicRuleManager::Config manager_config;
    core::DynamicRuleManager manager(&fs, &store, manager_config);
    ASSERT_TRUE(manager.AppendHistory(history).ok());
    batch::StatisticsJobConfig config =
        SystemStatisticsConfig(manager_config.history_path, 4);
    auto counters = batch::RunStatisticsJob(&fs, config);
    ASSERT_TRUE(counters.ok()) << counters.status().ToString();
    EXPECT_EQ(counters->input_records, history.size());
    EXPECT_LT(counters->map_output_records, 8 * history.size());
    ExpectMatchesReference(ReadStatParts(fs, config.output_dir),
                           ReferenceStatistics(fs, config));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatisticsReferenceProperty,
                         ::testing::Values(1u, 2u, 3u));

TEST(StatisticsReferenceTest, HostileRecordsMatchReference) {
  // CSV: area(0), stop(1), hour(2), dateType(3), delay(4), speed(5).
  const std::vector<std::string> lines = {
      "1,70,8,weekday,10,30",
      "1,70,8,weekday,20,31\r",           // \r\n ending: '\r' trimmed from speed
      "1,70,8,weekday\r,12,32",           // ... and kept inside dateType
      "",                                  // empty line
      "\"1\",\"70\",8,\"weekday\",14,33",  // quoted fields
      "\"1,5\",70,8,\"week\"\"day\",16,34",  // comma and "" escape inside quotes
      "\"\",70,8,weekday,18,35",           // empty quoted location
      "1,70,8,\"weekday,19,36",            // unterminated quote
      "1,70,8,wee\"kday,19,36",            // quote inside an unquoted field
      "\"1\"x,70,8,weekday,21,37",         // text after a closing quote
      "1,70,8,weekday,22",                 // short row
      "1,70,8",                            // short row
      "1,70,8,weekday, 23 ,\t38\t",        // whitespace-padded values
      "1,70,8,weekday,  ,39",              // blank value
      "1,70,8,weekday,24x,abc",            // non-numeric values
      "1,70,8,weekday,nan,inf",            // nan / inf
      "2,71,9,weekend,-inf,+inf",
      "2,71,9,weekend,1e999,1e-999",       // out of range: skipped
      "2,71,9,weekend,0x10,1e2",           // hex and exponent forms
      " 2,71 ,9,weekend,25,40",            // padded key fields stay in the key
      "2,71,9,weekend,26,41,extra,columns",
      "2,71,9,weekend,\"27\",\"4\"\"2\"",  // quoted values
  };
  std::string data;
  for (const std::string& line : lines) data += line + "\n";
  data += "\n\r\n3,72,10,weekday,5,6";  // empty lines, no final newline

  for (size_t chunk_size : {size_t{1} << 20, size_t{64}, size_t{13}, size_t{5}}) {
    for (int reducers : {1, 3}) {
      SCOPED_TRACE("chunk_size " + std::to_string(chunk_size) + " reducers " +
                   std::to_string(reducers));
      dfs::MiniDfs::Options options;
      options.chunk_size = chunk_size;
      dfs::MiniDfs fs(options);
      ASSERT_TRUE(fs.Append("/in", data).ok());
      batch::StatisticsJobConfig config;
      config.input_paths = {"/in"};
      config.output_dir = "/stats";
      config.hour_col = 2;
      config.date_type_col = 3;
      config.statistics = {{"delay", 4, 0}, {"delay_stop", 4, 1}, {"speed", 5, 0}};
      config.num_reducers = reducers;
      ASSERT_TRUE(batch::RunStatisticsJob(&fs, config).ok());
      ExpectMatchesReference(ReadStatParts(fs, config.output_dir),
                             ReferenceStatistics(fs, config));
    }
  }
}

TEST(StatisticsReferenceTest, OutputIsByteIdenticalAcrossParallelism) {
  // Many chunks, values whose sums depend on their order.
  std::string data;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    const int area = static_cast<int>(rng.NextUint(6));
    const int stop = static_cast<int>(rng.NextUint(9));
    const int hour = static_cast<int>(rng.NextUint(3));
    const double delay = rng.Uniform(-1e3, 1e3) / 7.0;
    const double speed = rng.NextDouble() * std::pow(10.0, rng.Uniform(-3, 6));
    data += StrFormat("%d,%d,%d,weekday,%.17g,%.17g\n", area, stop, hour, delay, speed);
  }
  dfs::MiniDfs::Options options;
  options.chunk_size = 1000;  // ~150 map tasks
  dfs::MiniDfs fs(options);
  ASSERT_TRUE(fs.Append("/in", data).ok());

  auto run = [&](int parallelism, int reducers) {
    batch::StatisticsJobConfig config;
    config.input_paths = {"/in"};
    config.output_dir = "/stats";
    config.hour_col = 2;
    config.date_type_col = 3;
    config.statistics = {{"delay", 4, 0}, {"delay_stop", 4, 1}, {"speed", 5, 0}};
    config.num_reducers = reducers;
    config.parallelism = parallelism;
    auto counters = batch::RunStatisticsJob(&fs, config);
    EXPECT_TRUE(counters.ok());
    EXPECT_GT(counters->map_tasks, 100u);
    std::string bytes;
    for (const std::string& path : fs.List("/stats/part-r-")) {
      bytes += path + "\n" + *fs.ReadAll(path);
    }
    return bytes;
  };
  for (int reducers : {1, 3, 4, 7}) {
    SCOPED_TRACE("reducers " + std::to_string(reducers));
    const std::string baseline = run(1, reducers);
    ASSERT_FALSE(baseline.empty());
    for (int repeat = 0; repeat < 3; ++repeat) {
      for (int parallelism : {1, 2, 4, 8}) {
        EXPECT_EQ(run(parallelism, reducers), baseline)
            << "parallelism " << parallelism << " repeat " << repeat;
      }
    }
  }
}

}  // namespace
}  // namespace insight
