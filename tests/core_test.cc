#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/csv.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread.h"
#include "core/allocation.h"
#include "core/dynamic.h"
#include "core/partitioning.h"
#include "core/retrieval.h"
#include "core/system.h"
#include "core/rule_template.h"
#include "traffic/bolts.h"

namespace insight {
namespace core {
namespace {

// ---------------------------------------------------------------------------
// RuleTemplate
// ---------------------------------------------------------------------------

std::unique_ptr<cep::Engine> MakeEngineWithTypes() {
  auto engine = std::make_unique<cep::Engine>();
  EXPECT_TRUE(
      engine->RegisterEventType("bus", traffic::BusEventFields({})).ok());
  for (const char* attr : {"delay", "actual_delay", "speed", "congestion"}) {
    for (const char* suffix : {"", "_stop"}) {
      EXPECT_TRUE(engine
                      ->RegisterEventType(
                          traffic::ThresholdEventTypeName(
                              std::string(attr) + suffix),
                          traffic::ThresholdEventFields())
                      .ok());
    }
  }
  return engine;
}

TEST(RuleTemplateTest, EveryTable6RuleCompiles) {
  for (size_t window : {1u, 10u, 100u, 1000u}) {
    for (const RuleTemplate& rule : Table6Rules(window)) {
      auto epl = rule.ToEpl();
      ASSERT_TRUE(epl.ok()) << rule.name << ": " << epl.status().ToString();
      auto engine_ptr = MakeEngineWithTypes();
  cep::Engine& engine = *engine_ptr;
      auto stmt = engine.AddStatement(*epl, rule.name);
      ASSERT_TRUE(stmt.ok()) << rule.name << ": " << stmt.status().ToString()
                             << "\n"
                             << *epl;
    }
  }
}

TEST(RuleTemplateTest, StaticVariantCompilesWithoutThresholdStream) {
  RuleTemplate rule = MakeRule("r", "delay", "area_leaf", 10);
  auto epl = rule.ToEpl(/*static_threshold=*/50.0);
  ASSERT_TRUE(epl.ok());
  EXPECT_EQ(epl->find("threshold_"), std::string::npos);
  auto engine_ptr = MakeEngineWithTypes();
  cep::Engine& engine = *engine_ptr;
  EXPECT_TRUE(engine.AddStatement(*epl, "r").ok());
}

TEST(RuleTemplateTest, SpeedRuleUsesBelowComparison) {
  RuleTemplate rule = MakeRule("r", "speed", "area_leaf", 10);
  auto epl = rule.ToEpl();
  ASSERT_TRUE(epl.ok());
  EXPECT_NE(epl->find("avg(bd2.speed) < "), std::string::npos);
}

TEST(RuleTemplateTest, StopRulesUseStopNamespace) {
  RuleTemplate rule = MakeRule("r", "delay", "bus_stop", 10);
  auto epl = rule.ToEpl();
  ASSERT_TRUE(epl.ok());
  EXPECT_NE(epl->find("threshold_delay_stop"), std::string::npos);
  EXPECT_EQ(rule.AttributeKey("delay"), "delay_stop");
}

TEST(RuleTemplateTest, ValidatesParameters) {
  RuleTemplate rule;
  rule.name = "bad";
  EXPECT_FALSE(rule.ToEpl().ok());  // no attributes
  rule.attributes = {{"delay", false}};
  rule.window_length = 0;
  EXPECT_FALSE(rule.ToEpl().ok());
  rule.window_length = 10;
  rule.location_field = "";
  EXPECT_FALSE(rule.ToEpl().ok());
}

TEST(RuleTemplateTest, MultiAttributeRuleFiresOnlyWhenAllConditionsHold) {
  RuleTemplate rule;
  rule.name = "dc";
  rule.attributes = {{"delay", false}, {"congestion", false}};
  rule.location_field = "area_leaf";
  rule.window_length = 2;
  auto epl = rule.ToEpl();
  ASSERT_TRUE(epl.ok());

  auto engine_ptr = MakeEngineWithTypes();
  cep::Engine& engine = *engine_ptr;
  auto stmt = engine.AddStatement(*epl, "dc");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\n" << *epl;
  size_t fires = 0;
  (*stmt)->AddListener([&](const cep::MatchResult&) { ++fires; });

  auto threshold = [&](const std::string& attr, double value) {
    auto type = engine.GetEventType(traffic::ThresholdEventTypeName(attr));
    ASSERT_TRUE(type.ok());
    engine.SendEvent(cep::EventBuilder(*type)
                         .Set("location", int64_t{7})
                         .Set("hour", int64_t{8})
                         .Set("day", "weekday")
                         .Set("value", value)
                         .Build());
  };
  threshold("delay", 100.0);
  threshold("congestion", 0.5);

  auto bus = [&](double delay, bool congested) {
    auto type = engine.GetEventType("bus");
    ASSERT_TRUE(type.ok());
    cep::EventBuilder builder(*type);
    builder.Set("timestamp", int64_t{1})
        .Set("line", int64_t{1})
        .Set("direction", false)
        .Set("lon", -6.26)
        .Set("lat", 53.35)
        .Set("delay", delay)
        .Set("congestion", congested)
        .Set("reported_stop", int64_t{-1})
        .Set("vehicle", int64_t{1})
        .Set("speed", 20.0)
        .Set("actual_delay", 0.0)
        .Set("hour", int64_t{8})
        .Set("date_type", "weekday")
        .Set("area_leaf", int64_t{7})
        .Set("bus_stop", int64_t{-1});
    engine.SendEvent(builder.Build());
  };
  // High delay but no congestion: must not fire.
  bus(500.0, false);
  bus(500.0, false);
  EXPECT_EQ(fires, 0u);
  // High delay and congestion: fires.
  bus(500.0, true);
  bus(500.0, true);
  EXPECT_GT(fires, 0u);
}

// ---------------------------------------------------------------------------
// Algorithm 1 — rule partitioning
// ---------------------------------------------------------------------------

TEST(PartitioningTest, BalancesAggregatedRates) {
  std::vector<RegionRate> rates;
  Rng rng(4);
  double total = 0;
  for (int64_t region = 0; region < 200; ++region) {
    double rate = rng.Uniform(1.0, 100.0);
    rates.push_back({region, rate});
    total += rate;
  }
  for (int engines : {2, 4, 7}) {
    auto assignment = PartitionRegions(rates, engines);
    ASSERT_TRUE(assignment.ok());
    auto engine_rates = EngineRates(*assignment, rates);
    ASSERT_EQ(engine_rates.size(), static_cast<size_t>(engines));
    double expected = total / engines;
    for (double r : engine_rates) {
      EXPECT_NEAR(r, expected, expected * 0.15) << engines << " engines";
    }
  }
}

TEST(PartitioningTest, EveryRegionAssignedExactlyOnce) {
  std::vector<RegionRate> rates{{1, 5}, {2, 5}, {3, 5}, {4, 5}, {5, 5}};
  auto assignment = PartitionRegions(rates, 3);
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->size(), 5u);
  for (const auto& [region, engine] : *assignment) {
    EXPECT_GE(engine, 0);
    EXPECT_LT(engine, 3);
  }
}

TEST(PartitioningTest, HeaviestRegionGoesFirst) {
  // One giant region and many small: giant gets its own engine.
  std::vector<RegionRate> rates{{99, 1000}};
  for (int64_t r = 0; r < 10; ++r) rates.push_back({r, 10});
  auto assignment = PartitionRegions(rates, 2);
  ASSERT_TRUE(assignment.ok());
  int giant_engine = assignment->at(99);
  for (int64_t r = 0; r < 10; ++r) {
    EXPECT_NE(assignment->at(r), giant_engine);
  }
}

TEST(PartitioningTest, SingleEngineTakesAll) {
  std::vector<RegionRate> rates{{1, 5}, {2, 50}};
  auto assignment = PartitionRegions(rates, 1);
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->at(1), 0);
  EXPECT_EQ(assignment->at(2), 0);
}

TEST(PartitioningTest, Validation) {
  EXPECT_FALSE(PartitionRegions({{1, 5}}, 0).ok());
  EXPECT_FALSE(PartitionRegions({{1, -5}}, 2).ok());
}

TEST(RegionRateTrackerTest, ObservationsBlendWithSeed) {
  RegionRateTracker tracker;
  tracker.Seed({{1, 100.0}, {2, 100.0}});
  // Observe only region 1 heavily.
  for (int i = 0; i < 2000; ++i) tracker.Observe(1);
  auto estimates = tracker.Estimates();
  double r1 = 0, r2 = 0;
  for (const auto& e : estimates) {
    if (e.region == 1) r1 = e.rate;
    if (e.region == 2) r2 = e.rate;
  }
  EXPECT_GT(r1, r2);
}

TEST(RegionRateTrackerTest, ObserveCountsEqualsObservingEachTuple) {
  RegionRateTracker each;
  RegionRateTracker counted;
  each.Seed({{1, 50.0}, {9, 700.0}});
  counted.Seed({{1, 50.0}, {9, 700.0}});
  for (int64_t region : {1, 1, 2, 5, 5, 5}) each.Observe(region);
  counted.ObserveCounts({{1, 2}, {2, 1}, {5, 3}});
  EXPECT_EQ(counted.observed_total(), 6u);
  auto a = each.Estimates();
  auto b = counted.Estimates();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].region, b[i].region);
    EXPECT_EQ(a[i].rate, b[i].rate);
  }
}

// ---------------------------------------------------------------------------
// SpatialRouter
// ---------------------------------------------------------------------------

TEST(SpatialRouterTest, RoutesByFieldAndDeduplicates) {
  SpatialRouter::GroupingRoute areas;
  areas.location_field = "area_leaf";
  areas.region_to_engine = {{10, 0}, {11, 1}};
  SpatialRouter::GroupingRoute stops;
  stops.location_field = "bus_stop";
  stops.region_to_engine = {{5, 1}, {6, 2}};
  SpatialRouter router({areas, stops});

  auto fields = std::make_shared<dsps::Fields>(
      dsps::Fields({"area_leaf", "bus_stop"}));
  std::vector<int> tasks;
  // area 10 -> 0; stop 5 -> 1.
  router.Route(dsps::Tuple(fields, {cep::Value(int64_t{10}),
                                    cep::Value(int64_t{5})}),
               &tasks);
  EXPECT_EQ(tasks, (std::vector<int>{0, 1}));
  // area 11 -> 1; stop 5 -> 1 (deduplicated).
  router.Route(dsps::Tuple(fields, {cep::Value(int64_t{11}),
                                    cep::Value(int64_t{5})}),
               &tasks);
  EXPECT_EQ(tasks, (std::vector<int>{1}));
}

TEST(SpatialRouterTest, FallbackForUnknownRegion) {
  SpatialRouter::GroupingRoute areas;
  areas.location_field = "area_leaf";
  areas.region_to_engine = {{10, 0}};
  areas.fallback_engines = {0, 1};
  SpatialRouter router({areas});
  auto fields = std::make_shared<dsps::Fields>(dsps::Fields({"area_leaf"}));
  std::vector<int> tasks;
  router.Route(dsps::Tuple(fields, {cep::Value(int64_t{999})}), &tasks);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_TRUE(tasks[0] == 0 || tasks[0] == 1);
}

TEST(SpatialRouterTest, FieldSlotsHoldAcrossSchemasThreadsAndCopies) {
  SpatialRouter::GroupingRoute areas;
  areas.location_field = "area_leaf";
  areas.region_to_engine = {{10, 0}, {11, 1}};
  SpatialRouter::GroupingRoute stops;
  stops.location_field = "bus_stop";
  stops.region_to_engine = {{5, 2}, {6, 3}};
  const SpatialRouter router({areas, stops});
  // Same fields in two orders, plus a schema missing one of them.
  auto forward = std::make_shared<dsps::Fields>(dsps::Fields({"area_leaf", "bus_stop"}));
  auto reversed = std::make_shared<dsps::Fields>(dsps::Fields({"bus_stop", "area_leaf"}));
  auto stops_only = std::make_shared<dsps::Fields>(dsps::Fields({"x", "bus_stop"}));
  auto route = [](const SpatialRouter& r, const std::shared_ptr<dsps::Fields>& f,
                  int64_t first, int64_t second) {
    std::vector<int> tasks;
    r.Route(dsps::Tuple(f, {cep::Value(first), cep::Value(second)}), &tasks);
    return tasks;
  };
  std::vector<Thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const int64_t area = 10 + (i + t) % 2;
        const int64_t stop = 5 + i % 2;
        std::vector<int> want{static_cast<int>(area - 10), static_cast<int>(stop - 3)};
        if (route(router, forward, area, stop) != want) ++mismatches[t];
        if (route(router, reversed, stop, area) != want) ++mismatches[t];
        if (route(router, stops_only, area, stop) != std::vector<int>{want[1]}) {
          ++mismatches[t];
        }
      }
    });
  }
  for (Thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
  // A copy resolves afresh, whichever schema it sees first.
  SpatialRouter copy = router;
  EXPECT_EQ(route(copy, reversed, 6, 11), (std::vector<int>{1, 3}));
  EXPECT_EQ(route(copy, forward, 10, 5), (std::vector<int>{0, 2}));
}

// ---------------------------------------------------------------------------
// Algorithm 2 — rules allocation
// ---------------------------------------------------------------------------

RuleGrouping MakeGrouping(const std::string& name, size_t window, double rate,
                          size_t num_rules = 5) {
  RuleGrouping grouping;
  grouping.name = name;
  for (size_t i = 0; i < num_rules; ++i) {
    grouping.rules.push_back(MakeRule(name + std::to_string(i), "delay",
                                      "area_leaf", window));
  }
  grouping.input_rate = rate;
  grouping.thresholds_per_rule = 100;
  return grouping;
}

TEST(AllocationTest, EveryGroupingGetsAtLeastOneEngine) {
  model::LatencyModel model = model::LatencyModel::Default();
  RulesAllocator allocator(&model);
  std::vector<RuleGrouping> groupings{MakeGrouping("a", 100, 1000),
                                      MakeGrouping("b", 100, 1000)};
  auto result = allocator.Allocate(groupings, 6);
  ASSERT_TRUE(result.ok());
  int total = std::accumulate(result->engines_per_grouping.begin(),
                              result->engines_per_grouping.end(), 0);
  EXPECT_EQ(total, 6);
  for (int engines : result->engines_per_grouping) EXPECT_GE(engines, 1);
}

TEST(AllocationTest, HeavierGroupingGetsMoreEngines) {
  model::LatencyModel model = model::LatencyModel::Default();
  RulesAllocator allocator(&model);
  // Same rate but much larger windows (heavier rules) in grouping b.
  std::vector<RuleGrouping> groupings{MakeGrouping("light", 1, 1000),
                                      MakeGrouping("heavy", 1000, 1000)};
  auto result = allocator.Allocate(groupings, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->engines_per_grouping[1], result->engines_per_grouping[0]);
}

TEST(AllocationTest, HigherRateGetsMoreEngines) {
  model::LatencyModel model = model::LatencyModel::Default();
  RulesAllocator allocator(&model);
  std::vector<RuleGrouping> groupings{MakeGrouping("slow", 100, 100),
                                      MakeGrouping("fast", 100, 10000)};
  auto result = allocator.Allocate(groupings, 12);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->engines_per_grouping[1], result->engines_per_grouping[0]);
}

TEST(AllocationTest, ScoreIsResidualLoadAndShrinksWithEngines) {
  model::LatencyModel model = model::LatencyModel::Default();
  RulesAllocator allocator(&model);
  RuleGrouping grouping = MakeGrouping("g", 100, 5000);
  double s1 = allocator.GroupingScore(grouping, 1);
  double s2 = allocator.GroupingScore(grouping, 2);
  double s4 = allocator.GroupingScore(grouping, 4);
  EXPECT_GT(s1, s2);
  EXPECT_GT(s2, s4);
  EXPECT_NEAR(s2, s1 / 2.0, 1e-9);  // rate splits evenly across engines
  EXPECT_DOUBLE_EQ(allocator.GroupingScore(grouping, 0), 0.0);
}

TEST(AllocationTest, RequiresEnoughEngines) {
  model::LatencyModel model = model::LatencyModel::Default();
  RulesAllocator allocator(&model);
  std::vector<RuleGrouping> groupings{MakeGrouping("a", 100, 1000),
                                      MakeGrouping("b", 100, 1000)};
  EXPECT_FALSE(allocator.Allocate(groupings, 1).ok());
  EXPECT_FALSE(allocator.Allocate({}, 4).ok());
}

TEST(AllocationTest, RoundRobinSpreadsEvenly) {
  std::vector<RuleGrouping> groupings{MakeGrouping("a", 1, 1),
                                      MakeGrouping("b", 1, 1),
                                      MakeGrouping("c", 1, 1)};
  auto result = RoundRobinAllocate(groupings, 7);
  EXPECT_EQ(result.engines_per_grouping, (std::vector<int>{3, 2, 2}));
}

TEST(AllocationTest, RelievesTheCurrentBottleneck) {
  // Regression for the grant rule: each extra engine must go to the
  // grouping whose score at its CURRENT engine count is highest. The old
  // code ranked groupings by their post-grant estimate, which starves a
  // grouping whose score halves per grant: with per-engine scores 100/k
  // and 60/k and two extra engines, it granted both to the first grouping
  // (post-grant 50 then 33.3, both above the second's post-grant 30) and
  // left the second grouping the 60-score bottleneck. The fix splits the
  // grants 2/2 for a bottleneck of 50.
  model::LatencyModel model = model::LatencyModel::Default();
  RulesAllocator allocator(&model);
  RuleGrouping heavy = MakeGrouping("heavy", 100, 1000);
  RuleGrouping light = MakeGrouping("light", 100, 600);
  double ratio = allocator.GroupingScore(heavy, 1) /
                 allocator.GroupingScore(light, 1);
  ASSERT_NEAR(ratio, 1000.0 / 600.0, 1e-6);  // score scales with rate
  auto result = allocator.Allocate({heavy, light}, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->engines_per_grouping, (std::vector<int>{2, 2}));
}

TEST(AllocationTest, GreedyMatchesBruteForceBottleneck) {
  // The greedy exists to minimize the bottleneck (makespan) score. With
  // scores of the form c_i / k_i the greedy is exactly optimal, so its
  // bottleneck must equal the best over every exhaustive split.
  model::LatencyModel model = model::LatencyModel::Default();
  RulesAllocator allocator(&model);
  std::vector<RuleGrouping> groupings{MakeGrouping("a", 50, 3100, 3),
                                      MakeGrouping("b", 200, 900, 4),
                                      MakeGrouping("c", 500, 1700, 2)};
  constexpr int kEngines = 9;
  auto result = allocator.Allocate(groupings, kEngines);
  ASSERT_TRUE(result.ok());
  double greedy_bottleneck = 0.0;
  for (double s : result->scores) greedy_bottleneck = std::max(greedy_bottleneck, s);

  double best_bottleneck = std::numeric_limits<double>::infinity();
  for (int ka = 1; ka <= kEngines - 2; ++ka) {
    for (int kb = 1; kb <= kEngines - ka - 1; ++kb) {
      int kc = kEngines - ka - kb;
      double bottleneck =
          std::max({allocator.GroupingScore(groupings[0], ka),
                    allocator.GroupingScore(groupings[1], kb),
                    allocator.GroupingScore(groupings[2], kc)});
      best_bottleneck = std::min(best_bottleneck, bottleneck);
    }
  }
  EXPECT_NEAR(greedy_bottleneck, best_bottleneck, best_bottleneck * 1e-9);
}

// ---------------------------------------------------------------------------
// Incremental re-partitioning (PlanRebalance)
// ---------------------------------------------------------------------------

TEST(PlanRebalanceTest, BalancedAssignmentNeedsNoMoves) {
  std::map<int64_t, int> assignment{{1, 0}, {2, 1}};
  std::vector<RegionRate> rates{{1, 100}, {2, 100}};
  auto moves = PlanRebalance(&assignment, rates, 2, 1.25, 8);
  ASSERT_TRUE(moves.ok());
  EXPECT_TRUE(moves->empty());
  EXPECT_EQ(assignment.at(1), 0);
  EXPECT_EQ(assignment.at(2), 1);
}

TEST(PlanRebalanceTest, MovesRegionsOffTheHotEngine) {
  // Engine 0 carries everything; the plan must shift load to engine 1
  // until max/avg is within the target, updating the assignment in place.
  std::map<int64_t, int> assignment{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  std::vector<RegionRate> rates{{1, 100}, {2, 90}, {3, 80}, {4, 70}};
  auto moves = PlanRebalance(&assignment, rates, 2, 1.25, 8);
  ASSERT_TRUE(moves.ok());
  ASSERT_FALSE(moves->empty());
  auto engine_rates = EngineRates(assignment, rates);
  double total = 100 + 90 + 80 + 70;
  double avg = total / 2.0;
  EXPECT_LE(std::max(engine_rates[0], engine_rates[1]), 1.25 * avg);
  for (const RegionMove& move : *moves) {
    EXPECT_EQ(move.from_engine, 0);
    EXPECT_EQ(move.to_engine, 1);
    EXPECT_EQ(assignment.at(move.region), 1);
  }
}

TEST(PlanRebalanceTest, RespectsMaxMoves) {
  std::map<int64_t, int> assignment;
  std::vector<RegionRate> rates;
  for (int64_t region = 0; region < 20; ++region) {
    assignment[region] = 0;
    rates.push_back({region, 10.0});
  }
  auto moves = PlanRebalance(&assignment, rates, 4, 1.0, 3);
  ASSERT_TRUE(moves.ok());
  EXPECT_EQ(moves->size(), 3u);
}

TEST(PlanRebalanceTest, StopsWhenNoImprovingMoveExists) {
  // One giant region dominates: moving it to the only other engine would
  // just swap the hot role, so the planner must stop, not oscillate.
  std::map<int64_t, int> assignment{{1, 0}, {2, 1}};
  std::vector<RegionRate> rates{{1, 1000}, {2, 10}};
  auto moves = PlanRebalance(&assignment, rates, 2, 1.0, 8);
  ASSERT_TRUE(moves.ok());
  EXPECT_TRUE(moves->empty());
  EXPECT_EQ(assignment.at(1), 0);
}

TEST(PlanRebalanceTest, Validation) {
  std::map<int64_t, int> assignment{{1, 0}};
  std::vector<RegionRate> rates{{1, 10}};
  EXPECT_FALSE(PlanRebalance(nullptr, rates, 2, 1.25, 8).ok());
  EXPECT_FALSE(PlanRebalance(&assignment, rates, 0, 1.25, 8).ok());
  EXPECT_FALSE(PlanRebalance(&assignment, rates, 2, 0.5, 8).ok());
  EXPECT_FALSE(
      PlanRebalance(&assignment, {{1, -10.0}}, 2, 1.25, 8).ok());
  std::map<int64_t, int> out_of_range{{1, 5}};
  EXPECT_FALSE(PlanRebalance(&out_of_range, rates, 2, 1.25, 8).ok());
}

// ---------------------------------------------------------------------------
// LiveRouter
// ---------------------------------------------------------------------------

SpatialRouter MakeTwoEngineRouter() {
  SpatialRouter::GroupingRoute areas;
  areas.location_field = "area_leaf";
  areas.region_to_engine = {{10, 0}, {11, 0}, {12, 1}};
  areas.fallback_engines = {0, 1};
  return SpatialRouter({areas});
}

std::vector<int> RouteRegion(const LiveRouter& router, int64_t region) {
  auto fields = std::make_shared<dsps::Fields>(dsps::Fields({"area_leaf"}));
  std::vector<int> tasks;
  router.Route(dsps::Tuple(fields, {cep::Value(region)}), &tasks);
  return tasks;
}

TEST(LiveRouterTest, MoveEngineRewritesEveryEntryAndBumpsVersion) {
  LiveRouter router(MakeTwoEngineRouter());
  uint64_t before = router.version();
  // Regions 10 and 11 plus one fallback slot point at engine 0.
  EXPECT_EQ(router.MoveEngine(0, 1), 3u);
  EXPECT_GT(router.version(), before);
  EXPECT_EQ(RouteRegion(router, 10), (std::vector<int>{1}));
  EXPECT_EQ(RouteRegion(router, 11), (std::vector<int>{1}));
  EXPECT_EQ(RouteRegion(router, 12), (std::vector<int>{1}));
  EXPECT_EQ(RouteRegion(router, 999), (std::vector<int>{1}));  // fallback
  // Nothing maps to engine 7.
  EXPECT_EQ(router.MoveEngine(7, 0), 0u);
}

TEST(LiveRouterTest, RestoreRollsBackToSnapshot) {
  LiveRouter router(MakeTwoEngineRouter());
  auto snapshot = router.Snapshot();
  ASSERT_GT(router.MoveEngine(0, 1), 0u);
  EXPECT_EQ(RouteRegion(router, 10), (std::vector<int>{1}));
  uint64_t flipped = router.version();
  router.Restore(snapshot);
  EXPECT_GT(router.version(), flipped);  // rollback is itself a publish
  EXPECT_EQ(RouteRegion(router, 10), (std::vector<int>{0}));
  EXPECT_EQ(RouteRegion(router, 12), (std::vector<int>{1}));
}

TEST(LiveRouterTest, ApplyMovesFollowsARebalancePlan) {
  LiveRouter router(MakeTwoEngineRouter());
  std::map<int64_t, int> assignment{{10, 0}, {11, 0}, {12, 1}};
  std::vector<RegionRate> rates{{10, 100}, {11, 90}, {12, 10}};
  auto moves = PlanRebalance(&assignment, rates, 2, 1.1, 8);
  ASSERT_TRUE(moves.ok());
  ASSERT_FALSE(moves->empty());
  EXPECT_EQ(router.ApplyMoves(0, *moves), moves->size());
  for (const auto& [region, engine] : assignment) {
    EXPECT_EQ(RouteRegion(router, region), std::vector<int>{engine})
        << "region " << region;
  }
}

TEST(LiveRouterTest, AsFunctionTracksSwaps) {
  LiveRouter router(MakeTwoEngineRouter());
  auto route_fn = router.AsFunction();
  auto fields = std::make_shared<dsps::Fields>(dsps::Fields({"area_leaf"}));
  std::vector<int> tasks;
  route_fn(dsps::Tuple(fields, {cep::Value(int64_t{10})}), &tasks);
  EXPECT_EQ(tasks, (std::vector<int>{0}));
  router.MoveEngine(0, 1);
  route_fn(dsps::Tuple(fields, {cep::Value(int64_t{10})}), &tasks);
  EXPECT_EQ(tasks, (std::vector<int>{1}));
}

TEST(AllocationTest, GroupRulesByLocationSplitsStopsFromAreas) {
  auto rules = Table6Rules(100);
  auto groupings = GroupRulesByLocation(rules, 3000.0, 50);
  ASSERT_EQ(groupings.size(), 2u);
  EXPECT_EQ(groupings[0].name, "quadtree");
  EXPECT_EQ(groupings[1].name, "bus_stops");
  EXPECT_EQ(groupings[0].rules.size(), 5u);
  EXPECT_EQ(groupings[1].rules.size(), 5u);
}

// ---------------------------------------------------------------------------
// Retrieval strategies
// ---------------------------------------------------------------------------

class RetrievalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        store_.CreateTable("statistics_delay", storage::StatisticsColumns())
            .ok());
    // Thresholds for locations 1..3, hour 8, weekday.
    for (int64_t loc = 1; loc <= 3; ++loc) {
      ASSERT_TRUE(store_
                      .Insert("statistics_delay",
                              {storage::Value(loc), storage::Value(int64_t{8}),
                               storage::Value("weekday"),
                               storage::Value(100.0 * static_cast<double>(loc)),
                               storage::Value(10.0),
                               storage::Value(int64_t{5})})
                      .ok());
    }
    rules_ = {MakeRule("r", "delay", "area_leaf", 2)};
  }

  storage::TableStore store_;
  std::vector<RuleTemplate> rules_;
};

TEST_F(RetrievalTest, ThresholdStreamPreloadsAllThresholds) {
  auto setup = BuildRetrieval(ThresholdRetrieval::kThresholdStream, rules_,
                              &store_, {});
  ASSERT_TRUE(setup.ok());
  ASSERT_EQ(setup->rules.size(), 1u);
  ASSERT_TRUE(static_cast<bool>(setup->preload));
  auto engine_ptr = MakeEngineWithTypes();
  cep::Engine& engine = *engine_ptr;
  auto stmt = engine.AddStatement(setup->rules[0].second, "r");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  setup->preload(&engine, 0);
  EXPECT_EQ((*stmt)->RetainedEvents(), 3u);  // three thresholds preloaded
  EXPECT_GT(setup->preload_db_cost_micros, 0);
  EXPECT_EQ(setup->per_tuple_db_cost_micros, 0);
}

TEST_F(RetrievalTest, MultipleRulesExpandsPerThreshold) {
  auto setup = BuildRetrieval(ThresholdRetrieval::kMultipleRules, rules_,
                              &store_, {});
  ASSERT_TRUE(setup.ok());
  EXPECT_EQ(setup->rules.size(), 3u);  // one per threshold row
  auto engine_ptr = MakeEngineWithTypes();
  cep::Engine& engine = *engine_ptr;
  for (const auto& [name, epl] : setup->rules) {
    ASSERT_TRUE(engine.AddStatement(epl, name).ok()) << epl;
  }
  EXPECT_EQ(engine.num_statements(), 3u);
}

TEST_F(RetrievalTest, StaticUsesLiteral) {
  RetrievalOptions options;
  options.static_threshold = 42.0;
  auto setup =
      BuildRetrieval(ThresholdRetrieval::kStatic, rules_, &store_, options);
  ASSERT_TRUE(setup.ok());
  EXPECT_FALSE(static_cast<bool>(setup->preload));
  EXPECT_FALSE(static_cast<bool>(setup->before_send));
  EXPECT_NE(setup->rules[0].second.find("42"), std::string::npos);
}

TEST_F(RetrievalTest, BelowRulesSubtractDeviation) {
  // Speed anomalies are *low* averages, so the preloaded threshold must be
  // mean - s*stdev, not mean + s*stdev.
  ASSERT_TRUE(
      store_.CreateTable("statistics_speed", storage::StatisticsColumns()).ok());
  ASSERT_TRUE(store_
                  .Insert("statistics_speed",
                          {storage::Value(int64_t{1}), storage::Value(int64_t{8}),
                           storage::Value("weekday"), storage::Value(20.0),
                           storage::Value(4.0), storage::Value(int64_t{5})})
                  .ok());
  std::vector<RuleTemplate> rules = {MakeRule("r", "speed", "area_leaf", 2)};
  RetrievalOptions options;
  options.s = 2.0;
  auto setup = BuildRetrieval(ThresholdRetrieval::kThresholdStream, rules,
                              &store_, options);
  ASSERT_TRUE(setup.ok());
  auto engine_ptr = MakeEngineWithTypes();
  cep::Engine& engine = *engine_ptr;
  auto stmt = engine.AddStatement(setup->rules[0].second, "r");
  ASSERT_TRUE(stmt.ok());
  std::vector<double> fired_thresholds;
  (*stmt)->AddListener([&](const cep::MatchResult& m) {
    fired_thresholds.push_back(m.Get("threshold")->AsDouble());
  });
  setup->preload(&engine, 0);
  // Crawl at 5 km/h twice at location 1: avg 5 < 20 - 2*4 = 12 -> fires with
  // the *subtracted* threshold.
  auto bus_type = engine.GetEventType("bus");
  ASSERT_TRUE(bus_type.ok());
  for (int i = 0; i < 2; ++i) {
    cep::EventBuilder builder(*bus_type);
    builder.Set("timestamp", int64_t{i})
        .Set("line", int64_t{1})
        .Set("direction", false)
        .Set("lon", -6.26)
        .Set("lat", 53.35)
        .Set("delay", 0.0)
        .Set("congestion", false)
        .Set("reported_stop", int64_t{-1})
        .Set("vehicle", int64_t{1})
        .Set("speed", 5.0)
        .Set("actual_delay", 0.0)
        .Set("hour", int64_t{8})
        .Set("date_type", "weekday")
        .Set("area_leaf", int64_t{1})
        .Set("bus_stop", int64_t{-1});
    engine.SendEvent(builder.Build());
  }
  ASSERT_FALSE(fired_thresholds.empty());
  EXPECT_DOUBLE_EQ(fired_thresholds.back(), 12.0);
}

TEST_F(RetrievalTest, JoinWithDatabaseQueriesPerTuple) {
  auto setup = BuildRetrieval(ThresholdRetrieval::kJoinWithDatabase, rules_,
                              &store_, {});
  ASSERT_TRUE(setup.ok());
  ASSERT_TRUE(static_cast<bool>(setup->before_send));
  EXPECT_GT(setup->per_tuple_db_cost_micros, 0);

  auto engine_ptr = MakeEngineWithTypes();
  cep::Engine& engine = *engine_ptr;
  auto stmt = engine.AddStatement(setup->rules[0].second, "r");
  ASSERT_TRUE(stmt.ok());

  auto fields = std::make_shared<dsps::Fields>(
      dsps::Fields({"area_leaf", "hour", "date_type"}));
  dsps::Tuple tuple(fields, {cep::Value(int64_t{2}), cep::Value(int64_t{8}),
                             cep::Value("weekday")});
  size_t queries_before = store_.query_count();
  setup->before_send(&engine, 0, tuple);
  EXPECT_GT(store_.query_count(), queries_before);
  EXPECT_EQ((*stmt)->RetainedEvents(), 1u);  // the fetched threshold
  // Same key again: queried again (per-tuple join) but not re-sent.
  setup->before_send(&engine, 0, tuple);
  EXPECT_EQ((*stmt)->RetainedEvents(), 1u);
}

TEST_F(RetrievalTest, EsperBoltConfigHooksBeforeSendOnlyWhenASetupHasOne) {
  for (ThresholdRetrieval strategy :
       {ThresholdRetrieval::kThresholdStream, ThresholdRetrieval::kJoinWithDatabase}) {
    std::vector<RetrievalSetup> setups;
    for (int g = 0; g < 2; ++g) {
      auto setup = BuildRetrieval(strategy, rules_, &store_, {});
      ASSERT_TRUE(setup.ok());
      setups.push_back(std::move(*setup));
    }
    auto config = MakeEsperBoltConfig(std::move(setups), {1, 2});
    ASSERT_EQ(config->rules_per_task.size(), 3u);
    EXPECT_EQ(config->rules_per_task[2].size(), 1u);
    // A null hook means EsperBolt::Execute makes no per-tuple hook call.
    EXPECT_EQ(static_cast<bool>(config->before_send),
              strategy == ThresholdRetrieval::kJoinWithDatabase)
        << ThresholdRetrievalToString(strategy);
    EXPECT_FALSE(static_cast<bool>(config->preload));
  }
}

TEST(DynamicRuleManagerTest, AppendHistoryWritesCsvWriterBytes) {
  traffic::BusTrace plain;
  plain.timestamp = 8 * 3600 * 1'000'000LL + 17;
  plain.line_id = 12;
  plain.direction = true;
  plain.position = {53.349805, -6.26031};
  plain.delay_seconds = 61.5;
  plain.congestion = true;
  plain.reported_stop_id = 4711;
  plain.vehicle_id = 33001;
  plain.speed_kmh = 27.125;  // a tie: "%.2f" rounds half to even
  plain.actual_delay = -0.004;
  plain.hour = 8;
  plain.area_leaf = 42;
  plain.bus_stop = 7;
  std::vector<traffic::BusTrace> traces = {plain, traffic::BusTrace{}};
  traffic::BusTrace quoted = plain;
  quoted.date_type = "week\"end,\"";  // needs quoting and "" escapes
  traces.push_back(quoted);
  traffic::BusTrace extreme = plain;
  extreme.position = {-0.0, 1e300};
  extreme.delay_seconds = std::numeric_limits<double>::quiet_NaN();
  extreme.speed_kmh = -std::numeric_limits<double>::infinity();
  extreme.actual_delay = 2.675;
  extreme.timestamp = std::numeric_limits<int64_t>::min();
  extreme.reported_stop_id = std::numeric_limits<int64_t>::max();
  extreme.date_type = "";
  traces.push_back(extreme);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    traffic::BusTrace t = plain;
    t.position = {rng.Uniform(-90, 90), rng.Uniform(-180, 180)};
    t.delay_seconds = rng.Uniform(-1000, 1000);
    t.speed_kmh = static_cast<double>(rng.NextUint(100000)) / 1000.0;
    t.actual_delay = static_cast<double>(rng.UniformInt(-50000, 50000)) / 8.0;
    traces.push_back(t);
  }

  std::ostringstream expected;
  CsvWriter writer(&expected);
  for (const traffic::BusTrace& trace : traces) writer.Write(trace.ToCsvRow());

  dfs::MiniDfs fs;
  storage::TableStore store;
  DynamicRuleManager manager(&fs, &store, {});
  ASSERT_TRUE(manager.AppendHistory(traces).ok());
  ASSERT_TRUE(manager.AppendHistory({quoted}).ok());
  writer.Write(quoted.ToCsvRow());
  EXPECT_EQ(*fs.ReadAll(manager.config().history_path), expected.str());
}

}  // namespace
}  // namespace core
}  // namespace insight
