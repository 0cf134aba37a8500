// Shared sources: statements of one engine with equal (event type, view
// chain) FROM items share one window, its indexes and its group
// accumulators. These tests hold the shared engine to the results of
// engines that share nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "core/rule_template.h"
#include "traffic/bolts.h"

namespace insight {
namespace cep {
namespace {

/// Serializes a match so two logs compare bit for bit: values go through
/// EncodeValue, so int 5 and double 5.0 never alias and doubles keep every
/// bit.
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

constexpr const char* kAttributes[] = {"delay", "actual_delay", "speed",
                                       "congestion"};
constexpr int64_t kLocations = 6;
constexpr int64_t kHours = 4;

/// An engine with the Figure-8 event types and some rules, logging every
/// match it delivers.
struct RuleEngine {
  Engine engine;
  std::vector<std::string> log;

  explicit RuleEngine(const std::vector<core::RuleTemplate>& rules) {
    EXPECT_TRUE(
        engine.RegisterEventType("bus", traffic::BusEventFields({})).ok());
    for (const char* attr : kAttributes) {
      EXPECT_TRUE(engine
                      .RegisterEventType(traffic::ThresholdEventTypeName(attr),
                                         traffic::ThresholdEventFields())
                      .ok());
    }
    for (const core::RuleTemplate& rule : rules) Add(rule);
  }

  Statement* Add(const core::RuleTemplate& rule) {
    auto epl = rule.ToEpl();
    EXPECT_TRUE(epl.ok()) << epl.status().ToString();
    auto stmt = engine.AddStatement(*epl, rule.name);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    if (!stmt.ok()) return nullptr;
    (*stmt)->AddListener(
        [this](const MatchResult& m) { log.push_back(EncodeMatch(m)); });
    return *stmt;
  }
};

/// all_rules' statements for one engine: Table 6 at windows 1, 10 and 100
/// over one location field.
std::vector<core::RuleTemplate> AllRulesOneEngine() {
  std::vector<core::RuleTemplate> rules;
  for (size_t window : {1, 10, 100}) {
    for (const core::RuleTemplate& rule : core::Table6Rules(window)) {
      if (rule.location_field == "area_leaf") rules.push_back(rule);
    }
  }
  return rules;
}

/// Seeded thresholds and bus events around the thresholds, so every rule
/// both fires and stays quiet. With `exact`, bus readings are quarter
/// values: window sums are then exact, so an engine restored from a
/// snapshot (which re-sums the retained events in window order) agrees bit
/// for bit with one that never stopped.
class Stream {
 public:
  Stream(uint32_t seed, bool exact) : rng_(seed), exact_(exact) {}

  /// One threshold per (attribute, location, hour, day); `fraction` of the
  /// keys, chosen at random, when refreshing.
  std::vector<EventPtr> Thresholds(const Engine& engine, double fraction) {
    std::vector<EventPtr> out;
    for (const char* attr : kAttributes) {
      auto type = engine.GetEventType(traffic::ThresholdEventTypeName(attr));
      EXPECT_TRUE(type.ok());
      for (int64_t loc = 0; loc < kLocations; ++loc) {
        for (int64_t hour = 0; hour < kHours; ++hour) {
          for (const char* day : {"weekday", "weekend"}) {
            const double value = ThresholdValue(attr);
            if (Uniform(0.0, 1.0) >= fraction) continue;
            out.push_back(EventBuilder(*type)
                              .Set("location", loc)
                              .Set("hour", hour)
                              .Set("day", day)
                              .Set("value", value)
                              .Build());
          }
        }
      }
    }
    return out;
  }

  std::vector<Value> NextBus(int64_t index) {
    const int64_t loc =
        std::uniform_int_distribution<int64_t>(0, kLocations - 1)(rng_);
    return {Value(index * 1000),
            Value(int64_t{1}),
            Value(true),
            Value(-6.26),
            Value(53.35),
            Value(Reading(90.0, 40.0)),
            Value(Uniform(0.0, 1.0) < 0.3),
            Value(int64_t{-1}),
            Value(index % 7),
            Value(Reading(22.0, 6.0)),
            Value(Reading(0.0, 5.0)),
            Value((index / 150) % kHours),
            Value(std::string((index / 400) % 2 == 0 ? "weekday" : "weekend")),
            Value(loc),
            Value(loc)};
  }

 private:
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  double Normal(double mean, double sd) {
    return std::normal_distribution<double>(mean, sd)(rng_);
  }
  double Reading(double mean, double sd) {
    const double x = Normal(mean, sd);
    return exact_ ? std::round(x * 4.0) / 4.0 : x;
  }
  double ThresholdValue(const std::string& attr) {
    if (attr == "delay") return Uniform(60.0, 120.0);
    if (attr == "actual_delay") return Uniform(-3.0, 3.0);
    if (attr == "speed") return Uniform(18.0, 26.0);
    return Uniform(0.1, 0.5);  // congestion
  }

  std::mt19937 rng_;
  bool exact_;
};

EventPtr BusEvent(const Engine& engine, std::vector<Value> values) {
  auto type = engine.GetEventType("bus");
  EXPECT_TRUE(type.ok());
  const int64_t ts = values[0].AsInt();
  return std::make_shared<Event>(*type, std::move(values), ts);
}

/// Sends each event to every engine, in order: events built for the first
/// engine's registry are rebuilt per engine (matching the type pointer).
void SendToAll(const std::vector<RuleEngine*>& engines,
               const std::vector<EventPtr>& events) {
  for (const EventPtr& e : events) {
    for (RuleEngine* re : engines) {
      auto type = re->engine.GetEventType(e->type().name());
      ASSERT_TRUE(type.ok());
      re->engine.SendEvent(
          std::make_shared<Event>(*type, e->values(), e->timestamp()));
    }
  }
}

TEST(SharedSourcesTest, AllRulesEngineMatchesOneEnginePerStatement) {
  const std::vector<core::RuleTemplate> rules = AllRulesOneEngine();
  ASSERT_EQ(rules.size(), 15u);
  RuleEngine shared(rules);
  // 4 bus shapes (lastevent, groupwin at 1/10/100) and 4 threshold streams,
  // where private windows would need 57.
  EXPECT_EQ(shared.engine.GetStats().sources, 8u);

  // The shared engine evaluates in statement-name order, so the private
  // engines are visited in the same order.
  std::map<std::string, std::unique_ptr<RuleEngine>> privates;
  for (const core::RuleTemplate& rule : rules) {
    privates[rule.name] =
        std::make_unique<RuleEngine>(std::vector<core::RuleTemplate>{rule});
  }
  std::vector<RuleEngine*> all = {&shared};
  size_t private_sources = 0;
  for (auto& [name, re] : privates) {
    all.push_back(re.get());
    private_sources += re->engine.GetStats().sources;
  }
  EXPECT_EQ(private_sources, 57u);

  // Full-precision readings: sums that drift with the order of additions
  // would show here.
  Stream stream(2024, /*exact=*/false);
  SendToAll(all, stream.Thresholds(shared.engine, 1.0));
  auto run = [&](int64_t from, int64_t to) {
    for (int64_t i = from; i < to; ++i) {
      SendToAll(all, {BusEvent(shared.engine, stream.NextBus(i))});
    }
  };
  run(0, 1500);
  // In-place refresh: std:unique replaces the refreshed keys.
  SendToAll(all, stream.Thresholds(shared.engine, 0.5));
  run(1500, 2200);
  for (RuleEngine* re : all) re->engine.ResetStream("bus");
  run(2200, 3000);

  for (auto& [name, re] : privates) {
    EXPECT_FALSE(re->log.empty()) << name << " never fired";
  }
  // Matches carry the statement name: compare statement by statement.
  std::map<std::string, std::vector<std::string>> shared_by_rule;
  for (const std::string& m : shared.log) {
    ByteReader reader(m);
    std::string name;
    ASSERT_TRUE(reader.GetString(&name));
    shared_by_rule[name].push_back(m);
  }
  size_t total = 0;
  for (auto& [name, re] : privates) {
    EXPECT_EQ(shared_by_rule[name], re->log) << name;
    total += re->log.size();
  }
  EXPECT_EQ(shared.log.size(), total);

  // Each shared source counts once in the retained total.
  size_t private_retained = 0;
  for (auto& [name, re] : privates) {
    private_retained += re->engine.GetStats().retained_events;
  }
  EXPECT_LT(shared.engine.GetStats().retained_events, private_retained);
}

/// Statements over one reading stream for the lifetime tests.
struct ReadingEngine {
  Engine engine;
  std::map<std::string, std::vector<std::string>> logs;

  ReadingEngine() {
    EXPECT_TRUE(engine
                    .RegisterEventType("reading", {{"zone", ValueType::kInt},
                                                   {"v", ValueType::kDouble}})
                    .ok());
  }

  Statement* Add(const std::string& epl, const std::string& name) {
    auto stmt = engine.AddStatement(epl, name);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    if (!stmt.ok()) return nullptr;
    (*stmt)->AddListener([this, name](const MatchResult& m) {
      logs[name].push_back(EncodeMatch(m));
    });
    return *stmt;
  }

  void Send(int64_t zone, double v, int64_t ts) {
    engine.SendEvent(engine.NewEvent("reading")
                         .Set("zone", zone)
                         .Set("v", v)
                         .SetTimestamp(ts)
                         .Build());
  }
};

/// The same aggregate over one grouped window under two aliases: the
/// accumulator column is shared, and evaluated through an expression.
constexpr char kAvgByG[] =
    "@Trigger(reading) SELECT r.zone AS zone, avg(g.v * 2.0) AS a, "
    "count(*) AS n FROM reading.std:lastevent() as r, "
    "reading.std:groupwin(zone).win:length(4) as g "
    "WHERE r.zone = g.zone GROUP BY g.zone";
constexpr char kAvgByW[] =
    "@Trigger(reading) SELECT r.zone AS zone, avg(w.v * 2.0) AS a, "
    "max(w.v) AS hi FROM reading.std:lastevent() as r, "
    "reading.std:groupwin(zone).win:length(4) as w "
    "WHERE r.zone = w.zone GROUP BY w.zone";

void SendReadings(std::mt19937* rng, int64_t from, int64_t to,
                  const std::vector<ReadingEngine*>& engines) {
  for (int64_t i = from; i < to; ++i) {
    const int64_t zone = std::uniform_int_distribution<int64_t>(0, 3)(*rng);
    const double v = std::uniform_int_distribution<int>(0, 100)(*rng) * 0.25;
    for (ReadingEngine* re : engines) re->Send(zone, v, i);
  }
}

TEST(SharedSourcesTest, StatementsShareOneAccumulatorColumnAcrossAliases) {
  ReadingEngine re;
  Statement* by_g = re.Add(kAvgByG, "by_g");
  Statement* by_w = re.Add(kAvgByW, "by_w");
  ASSERT_TRUE(by_g->incremental());
  ASSERT_TRUE(by_w->incremental());
  EXPECT_EQ(re.engine.GetStats().sources, 2u);
  ASSERT_EQ(by_g->sources()[1], by_w->sources()[1]);
  // `g.v * 2.0` and `w.v * 2.0` are one column; max(w.v) adds `v`.
  EXPECT_EQ(by_g->sources()[1]->num_accum_columns(), 2u);
}

TEST(SharedSourcesTest, LateStatementGetsItsOwnSourcesAndStartsEmpty) {
  ReadingEngine shared;
  shared.Add(kAvgByG, "early");
  std::mt19937 rng(7);
  SendReadings(&rng, 0, 200, {&shared});
  ASSERT_EQ(shared.engine.GetStats().sources, 2u);

  Statement* late = shared.Add(kAvgByW, "late");
  EXPECT_EQ(shared.engine.GetStats().sources, 4u);
  EXPECT_EQ(late->RetainedEvents(), 0u);

  ReadingEngine fresh;
  fresh.Add(kAvgByW, "late");
  SendReadings(&rng, 200, 600, {&shared, &fresh});
  ASSERT_FALSE(fresh.logs["late"].empty());
  EXPECT_EQ(shared.logs["late"], fresh.logs["late"]);
}

TEST(SharedSourcesTest, RemoveStatementKeepsASourceAliveForItsOtherUsers) {
  ReadingEngine shared;
  shared.Add(kAvgByG, "a_first");  // registers the shared column first
  shared.Add(kAvgByW, "b_second");
  ReadingEngine alone;
  alone.Add(kAvgByW, "b_second");
  std::mt19937 rng(11);
  SendReadings(&rng, 0, 300, {&shared, &alone});

  ASSERT_TRUE(shared.engine.RemoveStatement("a_first").ok());
  EXPECT_EQ(shared.engine.GetStats().sources, 2u);
  // The column now evaluates through the surviving statement's argument.
  SendReadings(&rng, 300, 700, {&shared, &alone});
  EXPECT_EQ(shared.logs["b_second"], alone.logs["b_second"]);
  EXPECT_EQ(shared.engine.GetStats().retained_events,
            alone.engine.GetStats().retained_events);

  ASSERT_TRUE(shared.engine.RemoveStatement("b_second").ok());
  EXPECT_EQ(shared.engine.GetStats().sources, 0u);
  EXPECT_EQ(shared.engine.GetStats().retained_events, 0u);
}

/// a_feed re-injects every low reading as a high one, from its listener,
/// while the outer event is still being evaluated. b_avg and c_join share
/// a_feed's lastevent source and run after it.
struct CascadeEngine : ReadingEngine {
  Statement* b;
  Statement* c;

  CascadeEngine() {
    Add("@Trigger(reading) INSERT INTO reading "
        "SELECT r.zone AS zone, r.v + 1000.0 AS v "
        "FROM reading.std:lastevent() as r WHERE r.v < 10.0",
        "a_feed");
    b = Add("@Trigger(reading) SELECT g.zone AS zone, avg(g.v) AS a, "
            "count(*) AS n FROM reading.std:lastevent() as r, "
            "reading.std:groupwin(zone).win:length(3) as g "
            "WHERE r.zone = g.zone GROUP BY g.zone",
            "b_avg");
    c = Add("@Trigger(reading) SELECT r.zone AS zone, w.v AS v "
            "FROM reading.std:lastevent() as r, reading.win:length(5) as w "
            "WHERE r.zone = w.zone",
            "c_join");
  }
};

TEST(SharedSourcesTest, InsertIntoCascadeLeavesASharedSourceConsistent) {
  // Each match of b_avg and c_join must agree with the window contents it
  // was computed from.
  CascadeEngine re;
  Statement* b = re.b;
  Statement* c = re.c;
  ASSERT_TRUE(b->incremental());
  ASSERT_EQ(b->sources()[0], c->sources()[0]);

  size_t b_checked = 0, c_checked = 0;
  b->AddListener([&](const MatchResult& m) {
    const EventRing* bucket =
        b->sources()[1]->window().GroupContents(m.Get("zone")->AsInt());
    ASSERT_NE(bucket, nullptr);
    double sum = 0.0;
    for (const EventPtr& e : *bucket) sum += e->Get(1).AsDouble();
    EXPECT_EQ(m.Get("n")->AsInt(), static_cast<int64_t>(bucket->size()));
    EXPECT_EQ(m.Get("a")->AsDouble(), sum / static_cast<double>(bucket->size()));
    ++b_checked;
  });
  // c_join probes a hash index on w.zone: each evaluation's rows must be
  // exactly the window's events of the last reading's zone. When a_feed
  // fires, c_join evaluates twice (the fed-back event, then the outer one)
  // over the same windows.
  std::vector<double> c_rows;
  int64_t c_zone = -1;
  size_t c_events = 0;
  auto check_c = [&]() {
    const size_t evaluations = c->total_events() - c_events;
    c_events = c->total_events();
    if (c_rows.empty()) return;
    std::vector<double> expected;
    for (size_t k = 0; k < evaluations; ++k) {
      c->sources()[1]->window().ForEachEvent([&](const EventPtr& e) {
        if (e->Get(0).AsInt() == c_zone) expected.push_back(e->Get(1).AsDouble());
      });
    }
    EXPECT_EQ(c_rows, expected);
    c_rows.clear();
    ++c_checked;
  };
  c->AddListener([&](const MatchResult& m) {
    c_zone = m.Get("zone")->AsInt();
    c_rows.push_back(m.Get("v")->AsDouble());
  });

  std::mt19937 rng(5);
  for (int64_t i = 0; i < 500; ++i) {
    const int64_t zone = std::uniform_int_distribution<int64_t>(0, 2)(rng);
    const double v = std::uniform_int_distribution<int>(0, 40)(rng);
    re.Send(zone, v, i);
    check_c();
    // The last reading in the shared lastevent window is the re-injected
    // one whenever a_feed fired.
    const Event& last = *b->sources()[0]->window().Contents().back();
    EXPECT_EQ(last.Get(1).AsDouble(), v < 10.0 ? v + 1000.0 : v);
  }
  EXPECT_GT(b_checked, 500u);
  EXPECT_EQ(c_checked, 500u);

  // The derived state (index entries, accumulators) equals what a restore
  // rebuilds from the windows alone: both engines continue identically.
  std::string snapshot;
  ASSERT_TRUE(re.engine.Snapshot(&snapshot).ok());
  CascadeEngine restored;
  ASSERT_TRUE(restored.engine.Restore(snapshot).ok());
  re.logs.clear();
  c_events = c->total_events();
  std::mt19937 rng_copy = rng;
  for (int64_t i = 500; i < 700; ++i) {
    const int64_t zone = std::uniform_int_distribution<int64_t>(0, 2)(rng);
    const double v = std::uniform_int_distribution<int>(0, 40)(rng);
    re.Send(zone, v, i);
    check_c();
  }
  for (int64_t i = 500; i < 700; ++i) {
    const int64_t zone = std::uniform_int_distribution<int64_t>(0, 2)(rng_copy);
    const double v = std::uniform_int_distribution<int>(0, 40)(rng_copy);
    restored.Send(zone, v, i);
  }
  EXPECT_EQ(re.logs, restored.logs);
}

/// The all_rules engine part-way through a stream, thresholds loaded.
struct MidStreamRules {
  RuleEngine re{AllRulesOneEngine()};
  Stream stream{99, /*exact=*/true};
  int64_t next = 0;

  void Preload() {
    SendToAll({&re}, stream.Thresholds(re.engine, 1.0));
  }
  void Run(int64_t n) {
    for (int64_t end = next + n; next < end; ++next) {
      SendToAll({&re}, {BusEvent(re.engine, stream.NextBus(next))});
    }
  }
};

TEST(SharedSourcesTest, SnapshotRestoreContinuesLikeTheOriginal) {
  MidStreamRules original;
  original.Preload();
  original.Run(700);
  std::string snapshot;
  ASSERT_TRUE(original.re.engine.Snapshot(&snapshot).ok());

  MidStreamRules restored;
  ASSERT_TRUE(restored.re.engine.Restore(snapshot).ok());
  EXPECT_EQ(restored.re.engine.GetStats().retained_events,
            original.re.engine.GetStats().retained_events);
  restored.stream = original.stream;
  restored.next = original.next;

  original.re.log.clear();
  original.Run(600);
  restored.Run(600);
  ASSERT_FALSE(original.re.log.empty());
  EXPECT_EQ(original.re.log, restored.re.log);
  std::string original_end, restored_end;
  ASSERT_TRUE(original.re.engine.Snapshot(&original_end).ok());
  ASSERT_TRUE(restored.re.engine.Snapshot(&restored_end).ok());
  EXPECT_EQ(original_end, restored_end);
}

TEST(SharedSourcesTest, VersionOneSnapshotIsRejectedIntoCleanState) {
  MidStreamRules original;
  original.Preload();
  original.Run(300);
  std::string snapshot;
  ASSERT_TRUE(original.re.engine.Snapshot(&snapshot).ok());
  // The same container with the version-1 number: its body was one
  // section per statement, which this engine no longer reads.
  std::string v1 = snapshot;
  v1[4] = 1;

  MidStreamRules victim;
  victim.Preload();
  victim.Run(300);
  Status status = victim.re.engine.Restore(v1);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported version 1"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(victim.re.engine.GetStats().retained_events, 0u);
  // No thresholds survive, so no rule can fire.
  victim.re.log.clear();
  victim.Run(300);
  EXPECT_TRUE(victim.re.log.empty());
}

TEST(SharedSourcesTest, SnapshotOfDifferentlySharedSourcesIsRejected) {
  // The original's late statement holds sources of its own; an engine where
  // both statements share cannot take that snapshot.
  ReadingEngine original;
  original.Add(kAvgByG, "early");
  std::mt19937 rng(3);
  SendReadings(&rng, 0, 50, {&original});
  original.Add(kAvgByW, "late");
  SendReadings(&rng, 50, 100, {&original});
  std::string snapshot;
  ASSERT_TRUE(original.engine.Snapshot(&snapshot).ok());

  ReadingEngine target;
  target.Add(kAvgByG, "early");
  target.Add(kAvgByW, "late");
  EXPECT_FALSE(target.engine.Restore(snapshot).ok());
  EXPECT_EQ(target.engine.GetStats().retained_events, 0u);

  // Nor can a snapshot of `early` alone: `late` would start with early's
  // restored windows instead of empty ones.
  ReadingEngine alone;
  alone.Add(kAvgByG, "early");
  SendReadings(&rng, 0, 50, {&alone});
  ASSERT_TRUE(alone.engine.Snapshot(&snapshot).ok());
  EXPECT_FALSE(target.engine.Restore(snapshot).ok());
  EXPECT_EQ(target.engine.GetStats().retained_events, 0u);
}

// --- Shared lookups: one probe or group lookup per distinct key and epoch ---

/// Runs `n` bus events from `stream` through `engines`, starting at `*next`.
void RunBus(Stream* stream, int64_t* next, int64_t n,
            const std::vector<RuleEngine*>& engines) {
  for (int64_t end = *next + n; *next < end; ++*next) {
    SendToAll(engines, {BusEvent(engines[0]->engine, stream->NextBus(*next))});
  }
}

/// The all_rules engine beside one private engine per statement, matches
/// compared statement by statement.
struct SharedAndPrivates {
  RuleEngine shared{AllRulesOneEngine()};
  std::map<std::string, std::unique_ptr<RuleEngine>> privates;

  SharedAndPrivates() {
    for (const core::RuleTemplate& rule : AllRulesOneEngine()) {
      privates[rule.name] =
          std::make_unique<RuleEngine>(std::vector<core::RuleTemplate>{rule});
    }
  }

  std::vector<RuleEngine*> All() {
    std::vector<RuleEngine*> all = {&shared};
    for (auto& [name, re] : privates) all.push_back(re.get());
    return all;
  }

  /// Every private engine fired, and the shared engine delivered exactly
  /// their matches.
  void ExpectSameMatches() {
    std::map<std::string, std::vector<std::string>> shared_by_rule;
    for (const std::string& m : shared.log) {
      ByteReader reader(m);
      std::string name;
      ASSERT_TRUE(reader.GetString(&name));
      shared_by_rule[name].push_back(m);
    }
    size_t total = 0;
    for (auto& [name, re] : privates) {
      EXPECT_FALSE(re->log.empty()) << name << " never fired";
      EXPECT_EQ(shared_by_rule[name], re->log) << name;
      total += re->log.size();
    }
    EXPECT_EQ(shared.log.size(), total);
  }
};

TEST(SharedLookupsTest, AllRulesEngineMakesEachDistinctLookupOncePerBusEvent) {
  SharedAndPrivates engines;
  Stream stream(31, /*exact=*/false);
  SendToAll(engines.All(), stream.Thresholds(engines.shared.engine, 1.0));
  for (RuleEngine* re : engines.All()) re->engine.ResetStats();

  constexpr int64_t kBusEvents = 1200;
  int64_t next = 0;
  RunBus(&stream, &next, kBusEvents, engines.All());

  // Every threshold key is loaded, so each statement probes each of its
  // threshold streams and looks up its group: 27 probes and 15 group
  // lookups per bus event. Only 4 probes (one per threshold stream) and 3
  // group lookups (one per window length) are distinct.
  const Engine::EngineStats stats = engines.shared.engine.GetStats();
  EXPECT_LE(stats.lookups, 7u * kBusEvents);
  EXPECT_EQ(stats.lookups + stats.lookups_shared, 42u * kBusEvents);
  size_t private_lookups = 0;
  for (auto& [name, re] : engines.privates) {
    EXPECT_EQ(re->engine.GetStats().lookups_shared, 0u) << name;
    private_lookups += re->engine.GetStats().lookups;
  }
  EXPECT_EQ(private_lookups, 42u * kBusEvents);
  engines.ExpectSameMatches();

  engines.shared.engine.ResetStats();
  EXPECT_EQ(engines.shared.engine.GetStats().lookups, 0u);
  EXPECT_EQ(engines.shared.engine.GetStats().lookups_shared, 0u);
}

TEST(SharedLookupsTest, ResetStreamRestoreAndRemoveStatementServeNoStaleSlot) {
  SharedAndPrivates engines;
  Stream stream(47, /*exact=*/true);
  int64_t next = 0;
  SendToAll(engines.All(), stream.Thresholds(engines.shared.engine, 1.0));
  RunBus(&stream, &next, 400, engines.All());

  for (RuleEngine* re : engines.All()) re->engine.ResetStream("bus");
  RunBus(&stream, &next, 300, engines.All());

  // Each engine restores its own snapshot over a running one.
  for (RuleEngine* re : engines.All()) {
    std::string snapshot;
    ASSERT_TRUE(re->engine.Snapshot(&snapshot).ok());
    ASSERT_TRUE(re->engine.Restore(snapshot).ok());
  }
  RunBus(&stream, &next, 300, engines.All());
  // A restore into engines that have run ahead of the snapshot.
  {
    std::vector<std::string> snapshots;
    for (RuleEngine* re : engines.All()) {
      ASSERT_TRUE(re->engine.Snapshot(&snapshots.emplace_back()).ok());
    }
    Stream ahead = stream;
    int64_t ahead_next = next;
    RunBus(&ahead, &ahead_next, 150, engines.All());
    std::vector<RuleEngine*> all = engines.All();
    for (size_t k = 0; k < all.size(); ++k) {
      ASSERT_TRUE(all[k]->engine.Restore(snapshots[k]).ok());
    }
  }
  RunBus(&stream, &next, 300, engines.All());
  engines.ExpectSameMatches();

  // Dropping the statements that fill the slots first (name order) leaves
  // the remaining users of those slots to fill them.
  const std::vector<std::string> removed = {"actual_delay_area_leaf_w1",
                                            "actual_delay_area_leaf_w10",
                                            "all_area_leaf_w1"};
  for (const std::string& name : removed) {
    ASSERT_TRUE(engines.shared.engine.RemoveStatement(name).ok()) << name;
    engines.privates.erase(name);
  }
  engines.shared.log.clear();
  for (auto& [name, re] : engines.privates) re->log.clear();
  engines.shared.engine.ResetStats();
  RunBus(&stream, &next, 400, engines.All());
  engines.ExpectSameMatches();
  EXPECT_LE(engines.shared.engine.GetStats().lookups, 7u * 400);
  EXPECT_GT(engines.shared.engine.GetStats().lookups_shared, 0u);
}

TEST(SharedLookupsTest, ThresholdRefreshBetweenBusEventsIsSeenByTheNextProbe) {
  // Two statements probe threshold_delay with the same key.
  std::vector<core::RuleTemplate> rules;
  for (const core::RuleTemplate& rule : core::Table6Rules(1)) {
    if (rule.location_field == "area_leaf" &&
        rule.name.rfind("delay_", 0) == 0) {
      rules.push_back(rule);
    }
  }
  ASSERT_EQ(rules.size(), 2u);  // delay and delay_congestion
  RuleEngine re(rules);
  std::vector<double> fired_thresholds;
  for (const core::RuleTemplate& rule : rules) {
    auto stmt = re.engine.GetStatement(rule.name);
    ASSERT_TRUE(stmt.ok());
    (*stmt)->AddListener([&](const MatchResult& m) {
      fired_thresholds.push_back(m.Get("threshold")->AsDouble());
    });
  }
  auto threshold = [&](const char* attr, double value) {
    auto type = re.engine.GetEventType(traffic::ThresholdEventTypeName(attr));
    EXPECT_TRUE(type.ok());
    re.engine.SendEvent(EventBuilder(*type)
                            .Set("location", int64_t{3})
                            .Set("hour", int64_t{8})
                            .Set("day", std::string("weekday"))
                            .Set("value", value)
                            .Build());
  };
  int64_t ts = 0;
  auto bus = [&]() {
    const size_t before = re.log.size();
    re.engine.SendEvent(re.engine.NewEvent("bus")
                            .Set("timestamp", ts)
                            .Set("delay", 100.0)
                            .Set("congestion", true)
                            .Set("hour", int64_t{8})
                            .Set("date_type", std::string("weekday"))
                            .Set("area_leaf", int64_t{3})
                            .Set("bus_stop", int64_t{3})
                            .SetTimestamp(ts)
                            .Build());
    ++ts;
    return re.log.size() - before;
  };
  auto stats = [&]() { return re.engine.GetStats(); };

  // No delay threshold for the key: the shared probe finds nothing.
  threshold("congestion", 0.5);
  EXPECT_EQ(bus(), 0u);
  EXPECT_EQ(stats().lookups, 1u);  // the second statement read the slot
  EXPECT_EQ(stats().lookups_shared, 1u);

  // A threshold that appears between two bus events is found.
  threshold("delay", 50.0);
  EXPECT_EQ(bus(), 2u);
  // Refreshed in place above the reading: neither statement fires.
  threshold("delay", 150.0);
  EXPECT_EQ(bus(), 0u);
  // And back below it.
  threshold("delay", 99.5);
  EXPECT_EQ(bus(), 2u);
  EXPECT_EQ(fired_thresholds, (std::vector<double>{50.0, 50.0, 99.5, 99.5}));
}

TEST(SharedLookupsTest, ResetStreamInsideASendEmptiesLaterStatementsProbes) {
  // a_reset's listener drops every threshold while the bus event is still
  // being evaluated: b_rule, which shares a_reset's probe, must find none.
  std::vector<core::RuleTemplate> rules;
  for (const core::RuleTemplate& rule : core::Table6Rules(1)) {
    if (rule.location_field == "area_leaf" &&
        rule.name.rfind("delay_", 0) == 0 && rule.attributes.size() == 1) {
      core::RuleTemplate a = rule;
      a.name = "a_reset";
      core::RuleTemplate b = rule;
      b.name = "b_rule";
      rules = {a, b};
    }
  }
  ASSERT_EQ(rules.size(), 2u);
  RuleEngine re(rules);
  auto a = re.engine.GetStatement("a_reset");
  ASSERT_TRUE(a.ok());
  (*a)->AddListener(
      [&](const MatchResult&) { re.engine.ResetStream("threshold_delay"); });

  Stream stream(5, /*exact=*/false);
  SendToAll({&re}, stream.Thresholds(re.engine, 1.0));
  size_t a_matches = 0, b_matches = 0;
  for (int64_t i = 0; i < 400; ++i) {
    re.log.clear();
    SendToAll({&re}, {BusEvent(re.engine, stream.NextBus(i))});
    for (const std::string& m : re.log) {
      ByteReader reader(m);
      std::string name;
      ASSERT_TRUE(reader.GetString(&name));
      (name == "a_reset" ? a_matches : b_matches) += 1;
    }
    // Reload whatever a_reset dropped.
    if (!re.log.empty()) SendToAll({&re}, stream.Thresholds(re.engine, 1.0));
  }
  EXPECT_GT(a_matches, 0u);
  EXPECT_EQ(b_matches, 0u);
}

/// a_avg and c_avg make the same group lookup; b_feed, evaluated between
/// them, re-injects each low reading into a new zone (zone + 10), which is
/// then the last reading, so c_avg looks up a group a_avg did not.
struct GroupCascadeEngine : ReadingEngine {
  Statement* a;
  Statement* c;

  GroupCascadeEngine() {
    constexpr char kAvg[] =
        "@Trigger(reading) SELECT g.zone AS zone, avg(g.v) AS a, "
        "min(g.v) AS lo, count(*) AS n FROM reading.std:lastevent() as r, "
        "reading.std:groupwin(zone).win:length(3) as g "
        "WHERE r.zone = g.zone GROUP BY g.zone";
    a = Add(kAvg, "a_avg");
    Add("@Trigger(reading) INSERT INTO reading "
        "SELECT r.zone + 10 AS zone, r.v + 1000.0 AS v "
        "FROM reading.std:lastevent() as r WHERE r.v < 10.0",
        "b_feed");
    c = Add(kAvg, "c_avg");
  }
};

TEST(SharedLookupsTest, InsertIntoCascadeRefreshesASharedGroupLookup) {
  GroupCascadeEngine re;
  ASSERT_TRUE(re.a->incremental());
  ASSERT_TRUE(re.c->incremental());
  ASSERT_EQ(re.a->sources()[1], re.c->sources()[1]);

  // Every match agrees with a scan of the group of the last reading, taken
  // when the match is delivered.
  size_t checked = 0;
  auto check = [&](const MatchResult& m) {
    const Window& lastevent = re.c->sources()[0]->window();
    const int64_t zone = lastevent.Contents().back()->Get(0).AsInt();
    EXPECT_EQ(m.Get("zone")->AsInt(), zone);
    const EventRing* bucket = re.c->sources()[1]->window().GroupContents(zone);
    ASSERT_NE(bucket, nullptr);
    double sum = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    for (const EventPtr& e : *bucket) {
      sum += e->Get(1).AsDouble();
      lo = std::min(lo, e->Get(1).AsDouble());
    }
    EXPECT_EQ(m.Get("n")->AsInt(), static_cast<int64_t>(bucket->size()));
    EXPECT_EQ(m.Get("a")->AsDouble(),
              sum / static_cast<double>(bucket->size()));
    EXPECT_EQ(m.Get("lo")->AsDouble(), lo);
    ++checked;
  };
  re.a->AddListener(check);
  re.c->AddListener(check);

  std::mt19937 rng(9);
  size_t fed = 0;
  for (int64_t i = 0; i < 600; ++i) {
    const int64_t zone = std::uniform_int_distribution<int64_t>(0, 2)(rng);
    const double v = std::uniform_int_distribution<int>(0, 40)(rng);
    re.Send(zone, v, i);
    fed += v < 10.0 ? 1 : 0;
  }
  ASSERT_GT(fed, 0u);
  // The last reading's own group always holds it, so both statements fire
  // on every evaluation: the outer readings and the fed-back ones.
  EXPECT_EQ(re.a->total_matches(), re.a->total_events());
  EXPECT_EQ(re.c->total_matches(), re.c->total_events());
  EXPECT_EQ(re.c->total_events(), 600u + fed);
  EXPECT_EQ(checked, 2 * (600u + fed));
}

TEST(SharedLookupsTest, KeysThatAreNotPlainFieldReferencesAreNotShared) {
  // Both statements probe the same unique window on `zone` through the same
  // index, with different computed keys: each keeps a private slot. Their
  // group lookup is keyed on a plain field and stays shared.
  ReadingEngine re;
  ASSERT_TRUE(re.engine
                  .RegisterEventType("limit", {{"zone", ValueType::kInt},
                                               {"max", ValueType::kDouble}})
                  .ok());
  std::map<std::string, std::vector<double>> maxes;
  for (const auto& [name, offset] :
       {std::pair<const char*, const char*>{"next_zone", "1"},
        {"zone_after_next", "2"}}) {
    Statement* stmt = re.Add(
        std::string("@Trigger(reading) SELECT g.zone AS zone, ") +
            "max(l.max) AS max, count(*) AS n "
            "FROM reading.std:lastevent() as r, limit.std:unique(zone) as l, "
            "reading.std:groupwin(zone).win:length(2) as g "
            "WHERE l.zone = r.zone + " + offset + " and g.zone = r.zone "
            "GROUP BY g.zone",
        name);
    ASSERT_NE(stmt, nullptr);
    ASSERT_TRUE(stmt->incremental());
    stmt->AddListener([&maxes, name = std::string(name)](const MatchResult& m) {
      maxes[name].push_back(m.Get("max")->AsDouble());
    });
  }
  for (int64_t zone = 0; zone < 4; ++zone) {
    re.engine.SendEvent(re.engine.NewEvent("limit")
                            .Set("zone", zone)
                            .Set("max", 10.0 * static_cast<double>(zone))
                            .Build());
  }
  re.Send(1, 0.5, 1);
  EXPECT_EQ(maxes["next_zone"], std::vector<double>{20.0});
  EXPECT_EQ(maxes["zone_after_next"], std::vector<double>{30.0});
  EXPECT_EQ(re.engine.GetStats().lookups, 3u);
  EXPECT_EQ(re.engine.GetStats().lookups_shared, 1u);
}

}  // namespace
}  // namespace cep
}  // namespace insight
