#include "cep/engine.h"

#include <gtest/gtest.h>

#include "cep/epl_parser.h"

namespace insight {
namespace cep {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterEventType("bus",
                                          {{"timestamp", ValueType::kInt},
                                           {"line", ValueType::kInt},
                                           {"location", ValueType::kInt},
                                           {"hour", ValueType::kInt},
                                           {"day", ValueType::kString},
                                           {"delay", ValueType::kDouble},
                                           {"speed", ValueType::kDouble}})
                    .ok());
    ASSERT_TRUE(engine_
                    .RegisterEventType("thresholdLocation",
                                       {{"location", ValueType::kInt},
                                        {"hour", ValueType::kInt},
                                        {"day", ValueType::kString},
                                        {"delay", ValueType::kDouble}})
                    .ok());
  }

  EventPtr Bus(int64_t ts, int64_t line, int64_t location, int64_t hour,
               const std::string& day, double delay, double speed = 10.0) {
    return engine_.NewEvent("bus")
        .Set("timestamp", ts)
        .Set("line", line)
        .Set("location", location)
        .Set("hour", hour)
        .Set("day", day)
        .Set("delay", delay)
        .Set("speed", speed)
        .SetTimestamp(ts)
        .Build();
  }

  EventPtr Threshold(int64_t location, int64_t hour, const std::string& day,
                     double delay) {
    return engine_.NewEvent("thresholdLocation")
        .Set("location", location)
        .Set("hour", hour)
        .Set("day", day)
        .Set("delay", delay)
        .Build();
  }

  Engine engine_;
};

// The generic rule template of Listing 1: fire when the windowed average
// delay in a location exceeds the location/hour/day threshold.
constexpr char kListing1[] = R"(
    @Trigger(bus)
    SELECT *
    FROM bus.std:lastevent() as bd,
         bus.std:groupwin(location).win:length(3) as bd2,
         thresholdLocation.win:keepall() as thresholds
    WHERE bd.hour = thresholds.hour and bd.day = thresholds.day and
          bd.location = thresholds.location and bd.location = bd2.location
    GROUP BY bd2.location
    HAVING avg(bd2.delay) > avg(thresholds.delay))";

TEST_F(EngineTest, Listing1RuleFiresWhenWindowAverageExceedsThreshold) {
  auto stmt = engine_.AddStatement(kListing1, "generic");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  std::vector<MatchResult> matches;
  (*stmt)->AddListener([&](const MatchResult& m) { matches.push_back(m); });

  // Threshold for location 7, hour 8, weekday: 100 seconds.
  engine_.SendEvent(Threshold(7, 8, "weekday", 100.0));

  // Window of 3: averages 50, 75, 100 -> no fire (not strictly greater).
  engine_.SendEvent(Bus(1, 1, 7, 8, "weekday", 50.0));
  engine_.SendEvent(Bus(2, 1, 7, 8, "weekday", 100.0));
  engine_.SendEvent(Bus(3, 2, 7, 8, "weekday", 150.0));
  EXPECT_EQ(matches.size(), 0u);

  // Next event pushes window to {100, 150, 200}: avg 150 > 100 -> fire.
  engine_.SendEvent(Bus(4, 2, 7, 8, "weekday", 200.0));
  ASSERT_EQ(matches.size(), 1u);
  auto loc = matches[0].Get("bd.location");
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->AsInt(), 7);
}

TEST_F(EngineTest, Listing1DifferentLocationDoesNotFire) {
  auto stmt = engine_.AddStatement(kListing1, "generic");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  size_t fires = 0;
  (*stmt)->AddListener([&](const MatchResult&) { ++fires; });

  engine_.SendEvent(Threshold(7, 8, "weekday", 100.0));
  // High delays but in location 9 which has no threshold -> join empty.
  for (int i = 0; i < 10; ++i) {
    engine_.SendEvent(Bus(i, 1, 9, 8, "weekday", 500.0));
  }
  EXPECT_EQ(fires, 0u);
}

TEST_F(EngineTest, Listing1ThresholdArrivalDoesNotTrigger) {
  auto stmt = engine_.AddStatement(kListing1, "generic");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  size_t fires = 0;
  (*stmt)->AddListener([&](const MatchResult&) { ++fires; });

  engine_.SendEvent(Bus(1, 1, 7, 8, "weekday", 500.0));
  engine_.SendEvent(Bus(2, 1, 7, 8, "weekday", 500.0));
  // Threshold arrives after the delays; @Trigger(bus) suppresses firing on
  // the threshold stream itself.
  engine_.SendEvent(Threshold(7, 8, "weekday", 100.0));
  EXPECT_EQ(fires, 0u);
  // But the next bus event sees the threshold and fires.
  engine_.SendEvent(Bus(3, 1, 7, 8, "weekday", 500.0));
  EXPECT_EQ(fires, 1u);
}

TEST_F(EngineTest, ResetStreamStartsTheBusStreamAfreshAndKeepsThresholds) {
  constexpr char kUniqueThresholds[] = R"(
      @Trigger(bus)
      SELECT bd.location AS location
      FROM bus.std:lastevent() as bd,
           bus.std:groupwin(location).win:length(3) as bd2,
           thresholdLocation.std:unique(location, hour, day) as thresholds
      WHERE bd.hour = thresholds.hour and bd.day = thresholds.day and
            bd.location = thresholds.location and bd.location = bd2.location
      GROUP BY bd2.location
      HAVING avg(bd2.delay) > avg(thresholds.delay))";
  auto stmt = engine_.AddStatement(kUniqueThresholds, "unique");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<int64_t> fired_at;
  (*stmt)->AddListener([&](const MatchResult&) {
    fired_at.push_back(engine_.current_trigger_timestamp());
  });
  engine_.SendEvent(Threshold(7, 8, "weekday", 100.0));
  auto stream = [&](int64_t t0) {
    for (double delay : {50.0, 100.0, 150.0, 200.0}) {
      engine_.SendEvent(Bus(t0++, 1, 7, 8, "weekday", delay));
    }
  };
  stream(1);
  ASSERT_EQ(fired_at, std::vector<int64_t>({4}));  // window {100, 150, 200}

  engine_.ResetStream("bus");
  auto retained = [&](const std::string& type) {
    size_t n = 0;
    (*stmt)->ForEachRetained(type, [&n](const EventPtr&) { ++n; });
    return n;
  };
  EXPECT_EQ(retained("bus"), 0u);
  ASSERT_EQ(retained("thresholdLocation"), 1u);
  // A fresh stream fires exactly as the first one did; the kept window of
  // {100, 150, 200} would have fired on the first event (avg 133 > 100).
  stream(11);
  EXPECT_EQ(fired_at, std::vector<int64_t>({4, 14}));
}

TEST_F(EngineTest, GroupWindowIsolatesLocations) {
  auto stmt = engine_.AddStatement(kListing1, "generic");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<int64_t> fired_locations;
  (*stmt)->AddListener([&](const MatchResult& m) {
    fired_locations.push_back(m.Get("bd.location")->AsInt());
  });

  engine_.SendEvent(Threshold(1, 8, "weekday", 100.0));
  engine_.SendEvent(Threshold(2, 8, "weekday", 100.0));
  // Location 1 gets low delays; location 2 high delays interleaved.
  for (int i = 0; i < 6; ++i) {
    engine_.SendEvent(Bus(i * 2, 1, 1, 8, "weekday", 10.0));
    engine_.SendEvent(Bus(i * 2 + 1, 2, 2, 8, "weekday", 400.0));
  }
  ASSERT_FALSE(fired_locations.empty());
  for (int64_t loc : fired_locations) EXPECT_EQ(loc, 2);
}

TEST_F(EngineTest, SelectProjectionAndAggregates) {
  auto stmt = engine_.AddStatement(
      "@Trigger(bus) SELECT bd.location AS loc, avg(bd2.speed) AS mean_speed, "
      "count(*) AS n "
      "FROM bus.std:lastevent() as bd, "
      "     bus.std:groupwin(location).win:length(4) as bd2 "
      "WHERE bd.location = bd2.location GROUP BY bd2.location",
      "speed");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<MatchResult> matches;
  (*stmt)->AddListener([&](const MatchResult& m) { matches.push_back(m); });

  engine_.SendEvent(Bus(1, 1, 5, 8, "weekday", 0.0, 10.0));
  engine_.SendEvent(Bus(2, 1, 5, 8, "weekday", 0.0, 20.0));
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[1].Get("loc")->AsInt(), 5);
  EXPECT_DOUBLE_EQ(matches[1].Get("mean_speed")->AsDouble(), 15.0);
  EXPECT_EQ(matches[1].Get("n")->AsInt(), 2);
}

TEST_F(EngineTest, LengthWindowEvictsOldest) {
  auto stmt = engine_.AddStatement(
      "@Trigger(bus) SELECT avg(b.delay) AS a FROM bus.win:length(2) as b",
      "w");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<double> avgs;
  (*stmt)->AddListener(
      [&](const MatchResult& m) { avgs.push_back(m.Get("a")->AsDouble()); });
  engine_.SendEvent(Bus(1, 1, 1, 8, "weekday", 10.0));
  engine_.SendEvent(Bus(2, 1, 1, 8, "weekday", 20.0));
  engine_.SendEvent(Bus(3, 1, 1, 8, "weekday", 60.0));
  ASSERT_EQ(avgs.size(), 3u);
  EXPECT_DOUBLE_EQ(avgs[0], 10.0);
  EXPECT_DOUBLE_EQ(avgs[1], 15.0);
  EXPECT_DOUBLE_EQ(avgs[2], 40.0);  // {20, 60}
}

TEST_F(EngineTest, TimeWindowExpiresByEventTime) {
  auto stmt = engine_.AddStatement(
      "@Trigger(bus) SELECT count(*) AS n FROM bus.win:time(10 sec) as b", "t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<int64_t> counts;
  (*stmt)->AddListener(
      [&](const MatchResult& m) { counts.push_back(m.Get("n")->AsInt()); });
  engine_.SendEvent(Bus(0, 1, 1, 8, "weekday", 1.0));
  engine_.SendEvent(Bus(5'000'000, 1, 1, 8, "weekday", 1.0));
  engine_.SendEvent(Bus(11'000'000, 1, 1, 8, "weekday", 1.0));  // first expired
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
}

TEST_F(EngineTest, RemoveStatementStopsDelivery) {
  auto stmt = engine_.AddStatement(
      "@Trigger(bus) SELECT count(*) AS n FROM bus.win:keepall() as b", "k");
  ASSERT_TRUE(stmt.ok());
  size_t fires = 0;
  (*stmt)->AddListener([&](const MatchResult&) { ++fires; });
  engine_.SendEvent(Bus(1, 1, 1, 8, "weekday", 0.0));
  EXPECT_EQ(fires, 1u);
  ASSERT_TRUE(engine_.RemoveStatement("k").ok());
  engine_.SendEvent(Bus(2, 1, 1, 8, "weekday", 0.0));
  EXPECT_EQ(fires, 1u);
  EXPECT_FALSE(engine_.RemoveStatement("k").ok());
}

TEST_F(EngineTest, StatsTrackEventsAndMatches) {
  auto stmt = engine_.AddStatement(
      "@Trigger(bus) SELECT count(*) AS n FROM bus.win:keepall() as b", "k");
  ASSERT_TRUE(stmt.ok());
  for (int i = 0; i < 5; ++i) engine_.SendEvent(Bus(i, 1, 1, 8, "weekday", 0.0));
  auto stats = engine_.GetStats();
  EXPECT_EQ(stats.events_processed, 5u);
  EXPECT_EQ(stats.matches_fired, 5u);
  EXPECT_EQ(stats.retained_events, 5u);
  engine_.ResetStats();
  EXPECT_EQ(engine_.GetStats().events_processed, 0u);
}

TEST_F(EngineTest, DuplicateTypeRegistrationFails) {
  EXPECT_FALSE(engine_.RegisterEventType("bus", {}).ok());
}

TEST_F(EngineTest, UnknownTypeInStatementFails) {
  auto r = engine_.AddStatement("SELECT * FROM nosuch.win:keepall() as x");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, UnknownFieldFails) {
  auto r = engine_.AddStatement(
      "SELECT * FROM bus.win:keepall() as b WHERE b.nosuch = 1");
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineTest, AggregateInWhereRejected) {
  auto r = engine_.AddStatement(
      "SELECT * FROM bus.win:keepall() as b WHERE avg(b.delay) > 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cep
}  // namespace insight
