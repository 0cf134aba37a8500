// Deeper coverage of the statement executor: joins, ORDER BY, INSERT INTO,
// multi-statement engines, OR/NOT predicates, arithmetic projections, batch
// windows inside joins, incremental min/max under non-finite values, and
// snapshot/restore in the middle of a stream.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "common/bytes.h"

namespace insight {
namespace cep {
namespace {

class StatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .RegisterEventType("reading", {{"sensor", ValueType::kInt},
                                                   {"zone", ValueType::kInt},
                                                   {"value", ValueType::kDouble},
                                                   {"ok", ValueType::kBool}})
                    .ok());
    ASSERT_TRUE(engine_
                    .RegisterEventType("alert", {{"zone", ValueType::kInt},
                                                 {"severity", ValueType::kDouble}})
                    .ok());
    ASSERT_TRUE(engine_
                    .RegisterEventType("config", {{"zone", ValueType::kInt},
                                                  {"limit", ValueType::kDouble}})
                    .ok());
  }

  void SendReading(int64_t sensor, int64_t zone, double value, bool ok = true) {
    engine_.SendEvent(engine_.NewEvent("reading")
                          .Set("sensor", sensor)
                          .Set("zone", zone)
                          .Set("value", value)
                          .Set("ok", ok)
                          .Build());
  }

  void SendConfig(int64_t zone, double limit) {
    engine_.SendEvent(engine_.NewEvent("config")
                          .Set("zone", zone)
                          .Set("limit", limit)
                          .Build());
  }

  Engine engine_;
};

TEST_F(StatementTest, OrderBySortsMatchesWithinEvaluation) {
  // Every arrival re-evaluates all zones (no WHERE anchoring to the new
  // event): matches must come out ordered by the aggregate, descending.
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT r.zone AS zone, avg(r.value) AS mean "
      "FROM reading.std:groupwin(zone).win:length(4) as r "
      "GROUP BY r.zone ORDER BY avg(r.value) DESC",
      "ordered");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<std::vector<int64_t>> evaluations;
  std::vector<int64_t> current;
  (*stmt)->AddListener([&](const MatchResult& m) {
    current.push_back(m.Get("zone")->AsInt());
  });
  SendReading(1, 1, 10.0);
  SendReading(2, 2, 30.0);
  current.clear();
  SendReading(3, 3, 20.0);  // zones now: 1->10, 2->30, 3->20
  ASSERT_EQ(current.size(), 3u);
  EXPECT_EQ(current, (std::vector<int64_t>{2, 3, 1}));
}

TEST_F(StatementTest, OrderByAscendingIsDefault) {
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT r.zone AS zone FROM "
      "reading.std:groupwin(zone).win:length(1) as r GROUP BY r.zone "
      "ORDER BY r.zone",
      "asc");
  ASSERT_TRUE(stmt.ok());
  std::vector<int64_t> zones;
  (*stmt)->AddListener(
      [&](const MatchResult& m) { zones.push_back(m.Get("zone")->AsInt()); });
  SendReading(1, 5, 1.0);
  SendReading(2, 3, 1.0);
  zones.clear();
  SendReading(3, 9, 1.0);
  EXPECT_EQ(zones, (std::vector<int64_t>{3, 5, 9}));
}

TEST_F(StatementTest, OrderByWithLimitYieldsTopK) {
  // Top-2 zones by average value — the "most congested areas" query.
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT r.zone AS zone, avg(r.value) AS mean "
      "FROM reading.std:groupwin(zone).win:length(4) as r "
      "GROUP BY r.zone ORDER BY avg(r.value) DESC LIMIT 2",
      "topk");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<int64_t> current;
  (*stmt)->AddListener([&](const MatchResult& m) {
    current.push_back(m.Get("zone")->AsInt());
  });
  SendReading(1, 1, 10.0);
  SendReading(2, 2, 30.0);
  SendReading(3, 4, 5.0);
  current.clear();
  SendReading(4, 3, 20.0);  // zones: 1->10, 2->30, 3->20, 4->5
  EXPECT_EQ(current, (std::vector<int64_t>{2, 3}));  // top two only
}

TEST_F(StatementTest, LimitValidation) {
  EXPECT_FALSE(engine_
                   .AddStatement(
                       "SELECT r.zone AS z FROM reading.win:keepall() as r "
                       "LIMIT 0")
                   .ok());
  EXPECT_FALSE(engine_
                   .AddStatement(
                       "SELECT r.zone AS z FROM reading.win:keepall() as r "
                       "LIMIT x")
                   .ok());
}

TEST_F(StatementTest, InsertIntoFeedsDownstreamRule) {
  // Stage 1: per-zone average over limit -> alert events.
  auto stage1 = engine_.AddStatement(
      "@Trigger(reading) INSERT INTO alert "
      "SELECT r.zone AS zone, avg(r.value) AS severity "
      "FROM reading.std:lastevent() as r2, "
      "     reading.std:groupwin(zone).win:length(2) as r, "
      "     config.std:unique(zone) as c "
      "WHERE r2.zone = r.zone and r2.zone = c.zone "
      "GROUP BY r.zone HAVING avg(r.value) > avg(c.limit)",
      "stage1");
  ASSERT_TRUE(stage1.ok()) << stage1.status().ToString();
  // Stage 2: counts alerts per zone (a composite-over-composite rule).
  auto stage2 = engine_.AddStatement(
      "@Trigger(alert) SELECT a.zone AS zone, count(*) AS n "
      "FROM alert.std:groupwin(zone).win:keepall() as a GROUP BY a.zone",
      "stage2");
  ASSERT_TRUE(stage2.ok()) << stage2.status().ToString();
  std::vector<int64_t> alert_counts;
  (*stage2)->AddListener([&](const MatchResult& m) {
    alert_counts.push_back(m.Get("n")->AsInt());
  });

  SendConfig(7, 100.0);
  SendReading(1, 7, 150.0);
  SendReading(1, 7, 170.0);  // avg 160 > 100 -> alert -> stage2 fires
  SendReading(1, 7, 180.0);  // avg 175 > 100 -> second alert
  ASSERT_GE(alert_counts.size(), 2u);
  EXPECT_EQ(alert_counts.back(), static_cast<int64_t>(alert_counts.size()));
}

TEST_F(StatementTest, InsertIntoUnknownTypeRejected) {
  auto r = engine_.AddStatement(
      "INSERT INTO nosuch SELECT r.zone AS zone FROM reading.win:keepall() as r");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(StatementTest, InsertIntoWithSelectStarRejected) {
  auto r = engine_.AddStatement(
      "INSERT INTO alert SELECT * FROM reading.win:keepall() as r");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StatementTest, InsertIntoSelfCycleIsCapped) {
  // alert -> alert would recurse forever; the engine caps the depth instead
  // of overflowing the stack.
  auto stmt = engine_.AddStatement(
      "INSERT INTO alert SELECT a.zone AS zone, a.severity + 1 AS severity "
      "FROM alert.std:lastevent() as a",
      "selfloop");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  engine_.SendEvent(engine_.NewEvent("alert")
                        .Set("zone", int64_t{1})
                        .Set("severity", 0.0)
                        .Build());
  // If we got here, the cap worked; the engine stayed consistent.
  EXPECT_GT(engine_.GetStats().events_processed, 1u);
}

TEST_F(StatementTest, OrAndNotPredicates) {
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT r.sensor AS sensor FROM "
      "reading.std:lastevent() as r "
      "WHERE (r.value > 100 or r.zone = 9) and not r.ok",
      "ornot");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<int64_t> fired;
  (*stmt)->AddListener(
      [&](const MatchResult& m) { fired.push_back(m.Get("sensor")->AsInt()); });
  SendReading(1, 1, 150.0, true);   // ok=true -> no
  SendReading(2, 1, 150.0, false);  // value>100 and !ok -> yes
  SendReading(3, 9, 10.0, false);   // zone=9 and !ok -> yes
  SendReading(4, 1, 10.0, false);   // neither -> no
  EXPECT_EQ(fired, (std::vector<int64_t>{2, 3}));
}

TEST_F(StatementTest, ArithmeticProjection) {
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT r.value * 2 + 1 AS scaled, "
      "r.value / 4 AS quarter, r.zone % 3 AS mod "
      "FROM reading.std:lastevent() as r",
      "math");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  MatchResult last;
  (*stmt)->AddListener([&](const MatchResult& m) { last = m; });
  SendReading(1, 7, 10.0);
  EXPECT_DOUBLE_EQ(last.Get("scaled")->AsDouble(), 21.0);
  EXPECT_DOUBLE_EQ(last.Get("quarter")->AsDouble(), 2.5);
  EXPECT_EQ(last.Get("mod")->AsInt(), 1);
}

TEST_F(StatementTest, DivisionByZeroYieldsZeroNotCrash) {
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT r.value / (r.zone - r.zone) AS d, "
      "r.zone % (r.zone - r.zone) AS m FROM reading.std:lastevent() as r",
      "divzero");
  ASSERT_TRUE(stmt.ok());
  MatchResult last;
  (*stmt)->AddListener([&](const MatchResult& m) { last = m; });
  SendReading(1, 4, 8.0);
  EXPECT_DOUBLE_EQ(last.Get("d")->AsDouble(), 0.0);
  EXPECT_EQ(last.Get("m")->AsInt(), 0);
}

TEST_F(StatementTest, MultipleStatementsShareStreams) {
  auto a = engine_.AddStatement(
      "@Trigger(reading) SELECT count(*) AS n FROM reading.win:keepall() as r",
      "a");
  auto b = engine_.AddStatement(
      "@Trigger(reading) SELECT max(r.value) AS m FROM reading.win:length(2) as r",
      "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  int64_t count = 0;
  double max_value = 0;
  (*a)->AddListener([&](const MatchResult& m) { count = m.Get("n")->AsInt(); });
  (*b)->AddListener(
      [&](const MatchResult& m) { max_value = m.Get("m")->AsDouble(); });
  SendReading(1, 1, 5.0);
  SendReading(2, 1, 9.0);
  SendReading(3, 1, 2.0);
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(max_value, 9.0);  // window {9, 2}
}

TEST_F(StatementTest, MinMaxSumStddevAggregates) {
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT min(r.value) AS lo, max(r.value) AS hi, "
      "sum(r.value) AS total, stddev(r.value) AS sd "
      "FROM reading.win:keepall() as r",
      "aggs");
  ASSERT_TRUE(stmt.ok());
  MatchResult last;
  (*stmt)->AddListener([&](const MatchResult& m) { last = m; });
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) SendReading(1, 1, v);
  EXPECT_DOUBLE_EQ(last.Get("lo")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(last.Get("hi")->AsDouble(), 9.0);
  EXPECT_DOUBLE_EQ(last.Get("total")->AsDouble(), 40.0);
  EXPECT_NEAR(last.Get("sd")->AsDouble(), 2.0, 1e-9);  // classic example
}

TEST_F(StatementTest, LengthBatchEmitsOnlyOnFlushBoundary) {
  // A batch window inside a statement: the count reflects accumulation and
  // resets after the flush.
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT count(*) AS n FROM "
      "reading.win:length_batch(3) as r",
      "batch");
  ASSERT_TRUE(stmt.ok());
  std::vector<int64_t> counts;
  (*stmt)->AddListener(
      [&](const MatchResult& m) { counts.push_back(m.Get("n")->AsInt()); });
  for (int i = 0; i < 7; ++i) SendReading(1, 1, i);
  // The 3rd and 6th arrivals flush the batch (window empties), and an empty
  // join produces no match, so the series is 1,2,1,2,1.
  EXPECT_EQ(counts, (std::vector<int64_t>{1, 2, 1, 2, 1}));
}

TEST_F(StatementTest, ThreeWayJoinWithoutIndexFallsBackToScan) {
  // No equi predicates at all: full cross product filtered by a range
  // predicate.
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT r.sensor AS sensor, c.zone AS config_zone "
      "FROM reading.std:lastevent() as r, config.win:keepall() as c "
      "WHERE r.value > c.limit",
      "scan");
  ASSERT_TRUE(stmt.ok());
  size_t fired = 0;
  (*stmt)->AddListener([&](const MatchResult&) { ++fired; });
  SendConfig(1, 10.0);
  SendConfig(2, 20.0);
  SendConfig(3, 30.0);
  SendReading(1, 1, 25.0);  // beats limits 10 and 20 -> 2 matches
  EXPECT_EQ(fired, 2u);
}

TEST_F(StatementTest, JoinIndexStaysConsistentUnderWindowEviction) {
  // The hash index on an ungrouped length window must drop evicted events.
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT c.limit AS limit FROM "
      "reading.std:lastevent() as r, config.win:length(2) as c "
      "WHERE c.zone = r.zone",
      "evict");
  ASSERT_TRUE(stmt.ok());
  std::vector<double> limits;
  (*stmt)->AddListener(
      [&](const MatchResult& m) { limits.push_back(m.Get("limit")->AsDouble()); });
  SendConfig(1, 10.0);
  SendConfig(2, 20.0);
  SendConfig(3, 30.0);  // zone-1 config evicted from the length-2 window
  SendReading(1, 1, 5.0);
  EXPECT_TRUE(limits.empty()) << "evicted config matched";
  SendReading(2, 3, 5.0);
  ASSERT_EQ(limits.size(), 1u);
  EXPECT_DOUBLE_EQ(limits[0], 30.0);
}

TEST_F(StatementTest, BareFieldResolvesWhenUnambiguous) {
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT sensor AS s FROM reading.std:lastevent() as r "
      "WHERE ok = true",
      "bare");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto ambiguous = engine_.AddStatement(
      "SELECT zone AS z FROM reading.win:keepall() as r, "
      "config.win:keepall() as c");
  EXPECT_FALSE(ambiguous.ok());  // zone exists in both streams
}

TEST_F(StatementTest, TypeCheckerRejectsStringMisuse) {
  ASSERT_TRUE(engine_
                  .RegisterEventType("msg", {{"text", ValueType::kString},
                                             {"n", ValueType::kInt}})
                  .ok());
  // avg over a string field.
  auto r1 = engine_.AddStatement(
      "SELECT avg(m.text) AS a FROM msg.win:keepall() as m");
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  // Arithmetic on a string.
  auto r2 = engine_.AddStatement(
      "SELECT m.text + 1 AS a FROM msg.win:keepall() as m");
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  // Ordering comparison between string and number.
  auto r3 = engine_.AddStatement(
      "SELECT * FROM msg.win:keepall() as m WHERE m.text > 5");
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  // Equality against a string is fine; so is count() over strings.
  auto ok = engine_.AddStatement(
      "SELECT count(m.text) AS c FROM msg.win:keepall() as m "
      "WHERE m.text = 'hello'");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(StatementTest, StringComparisonInWhere) {
  ASSERT_TRUE(engine_
                  .RegisterEventType("tagged", {{"tag", ValueType::kString},
                                                {"v", ValueType::kInt}})
                  .ok());
  auto stmt = engine_.AddStatement(
      "@Trigger(tagged) SELECT t.v AS v FROM tagged.std:lastevent() as t "
      "WHERE t.tag = 'urgent'",
      "strcmp");
  ASSERT_TRUE(stmt.ok());
  size_t fired = 0;
  (*stmt)->AddListener([&](const MatchResult&) { ++fired; });
  engine_.SendEvent(
      engine_.NewEvent("tagged").Set("tag", "normal").Set("v", 1).Build());
  engine_.SendEvent(
      engine_.NewEvent("tagged").Set("tag", "urgent").Set("v", 2).Build());
  EXPECT_EQ(fired, 1u);
}

// ---------------------------------------------------------------------------
// Incremental aggregation under hostile values, and mid-stream snapshots
// ---------------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Mostly ordinary values, with NaN, +/-inf, -0.0, +0.0, negatives and a
/// value whose arithmetic overflows to inf.
double HostileValue(std::mt19937* rng) {
  switch (std::uniform_int_distribution<int>(0, 15)(*rng)) {
    case 0:
      return kNaN;
    case 1:
      return kInf;
    case 2:
      return -kInf;
    case 3:
      return -0.0;
    case 4:
      return 0.0;
    case 5:
      return -std::uniform_real_distribution<double>(0.0, 50.0)(*rng);
    case 6:
      return 1e308;
    default:
      return std::uniform_real_distribution<double>(0.0, 25.0)(*rng);
  }
}

TEST_F(StatementTest, IncrementalMinMaxMatchesWindowRescanOnNonFiniteValues) {
  // min/max run incrementally and rescan the group only when an extreme is
  // evicted. Whatever the values, each emission must equal a scan of the
  // group's window in order with strict comparisons: NaN never becomes an
  // extreme, and of -0.0 and +0.0 the earlier retained one wins.
  constexpr size_t kWindow = 5;
  auto stmt = engine_.AddStatement(
      "@Trigger(reading) SELECT r.zone AS zone, min(g.value) AS lo, "
      "max(g.value) AS hi, count(*) AS n "
      "FROM reading.std:lastevent() as r, "
      "reading.std:groupwin(zone).win:length(5) as g "
      "WHERE r.zone = g.zone GROUP BY g.zone",
      "minmax");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE((*stmt)->incremental());
  std::vector<MatchResult> matches;
  (*stmt)->AddListener([&](const MatchResult& m) { matches.push_back(m); });

  std::map<int64_t, std::deque<double>> windows;
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    std::mt19937 rng(seed);
    for (int i = 0; i < 2000; ++i) {
      const int64_t zone = std::uniform_int_distribution<int64_t>(0, 3)(rng);
      const double v = HostileValue(&rng);
      std::deque<double>& window = windows[zone];
      window.push_back(v);
      if (window.size() > kWindow) window.pop_front();
      double lo = kInf, hi = -kInf;
      for (double w : window) {
        if (w < lo) lo = w;
        if (w > hi) hi = w;
      }

      matches.clear();
      SendReading(i, zone, v);
      ASSERT_EQ(matches.size(), 1u) << "seed " << seed << " event " << i;
      const MatchResult& m = matches[0];
      EXPECT_EQ(m.Get("zone")->AsInt(), zone);
      EXPECT_EQ(m.Get("n")->AsInt(), static_cast<int64_t>(window.size()));
      // Bit equality: tells -0.0 from +0.0.
      EXPECT_EQ(std::bit_cast<uint64_t>(m.Get("lo")->AsDouble()),
                std::bit_cast<uint64_t>(lo))
          << "seed " << seed << " event " << i << ": " << m.ToString();
      EXPECT_EQ(std::bit_cast<uint64_t>(m.Get("hi")->AsDouble()),
                std::bit_cast<uint64_t>(hi))
          << "seed " << seed << " event " << i << ": " << m.ToString();
    }
  }
}

/// Serializes a match so two delivery logs compare bit for bit: values go
/// through EncodeValue, so int 5 and double 5.0 never alias.
std::string EncodeMatch(const MatchResult& m) {
  std::string out;
  ByteWriter writer(&out);
  writer.PutString(m.statement_name);
  writer.PutU32(static_cast<uint32_t>(m.columns.size()));
  for (const auto& [name, value] : m.columns) {
    writer.PutString(name);
    EncodeValue(value, &writer);
  }
  return out;
}

/// An engine with grouped, ungrouped and time windows over one stream. Its
/// `exact` field takes quarter values only, so the incremental running sums
/// are exact and a restored engine (which re-sums the retained events) must
/// agree with one that never stopped.
struct MidStreamEngine {
  Engine engine;
  std::vector<std::string> log;

  MidStreamEngine() {
    EXPECT_TRUE(engine
                    .RegisterEventType("probe", {{"zone", ValueType::kInt},
                                                 {"hostile", ValueType::kDouble},
                                                 {"exact", ValueType::kDouble}})
                    .ok());
    const char* rules[] = {
        // Shape-A incremental average with a HAVING gate.
        "@Trigger(probe) SELECT p.zone AS zone, avg(g.exact) AS a "
        "FROM probe.std:lastevent() as p, "
        "probe.std:groupwin(zone).win:length(8) as g "
        "WHERE p.zone = g.zone GROUP BY g.zone HAVING avg(g.exact) < 15.0",
        // Incremental min/max/count over non-finite values.
        "@Trigger(probe) SELECT p.zone AS zone, min(g.hostile) AS lo, "
        "max(g.hostile) AS hi, count(*) AS n "
        "FROM probe.std:lastevent() as p, "
        "probe.std:groupwin(zone).win:length(5) as g "
        "WHERE p.zone = g.zone GROUP BY g.zone HAVING count(*) > 2",
        // Ungrouped length window through the non-incremental path.
        "@Trigger(probe) SELECT avg(w.exact) AS a, stddev(w.exact) AS sd "
        "FROM probe.win:length(7) as w",
        // Time window: expiry driven by event timestamps.
        "@Trigger(probe) SELECT count(*) AS n FROM probe.win:time(10 sec) as t",
    };
    for (size_t i = 0; i < std::size(rules); ++i) {
      auto stmt = engine.AddStatement(rules[i], "r" + std::to_string(i));
      EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
      if (!stmt.ok()) continue;
      (*stmt)->AddListener(
          [this](const MatchResult& m) { log.push_back(EncodeMatch(m)); });
    }
  }

  void Send(std::mt19937* rng, int64_t ts) {
    engine.SendEvent(
        engine.NewEvent("probe")
            .Set("zone", std::uniform_int_distribution<int64_t>(0, 4)(*rng))
            .Set("hostile", HostileValue(rng))
            .Set("exact",
                 std::uniform_int_distribution<int>(0, 100)(*rng) * 0.25)
            .SetTimestamp(ts)
            .Build());
  }
};

TEST(StatementSnapshotTest, RestoreMidStreamContinuesLikeTheOriginal) {
  MidStreamEngine original;
  std::mt19937 rng(4242);
  int64_t ts = 0;
  for (int i = 0; i < 300; ++i) original.Send(&rng, ts += 500'000);

  std::string snapshot;
  ASSERT_TRUE(original.engine.Snapshot(&snapshot).ok());
  MidStreamEngine restored;
  ASSERT_TRUE(restored.engine.Restore(snapshot).ok());

  // Both engines take the same continuation of the stream.
  original.log.clear();
  std::mt19937 rng_copy = rng;
  const int64_t resume_ts = ts;
  for (int i = 0; i < 300; ++i) original.Send(&rng, ts += 500'000);
  ts = resume_ts;
  for (int i = 0; i < 300; ++i) restored.Send(&rng_copy, ts += 500'000);

  ASSERT_FALSE(original.log.empty());
  EXPECT_EQ(original.log, restored.log);
  std::string original_end, restored_end;
  ASSERT_TRUE(original.engine.Snapshot(&original_end).ok());
  ASSERT_TRUE(restored.engine.Snapshot(&restored_end).ok());
  EXPECT_EQ(original_end, restored_end);
}

}  // namespace
}  // namespace cep
}  // namespace insight
