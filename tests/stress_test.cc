// Concurrency stress and failure-injection tests: heavy multithreaded load
// on the runtime, stores and filesystem; malformed input resilience; and a
// backpressure scenario (slow bolt behind a fast spout).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "batch/mapreduce.h"
#include "batch/statistics_job.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread.h"
#include "dfs/mini_dfs.h"
#include "dsps/local_runtime.h"
#include "storage/table_store.h"
#include "traffic/bolts.h"
#include "traffic/generator.h"

namespace insight {
namespace {

using dsps::Bolt;
using dsps::Collector;
using dsps::Fields;
using dsps::Spout;
using dsps::TaskContext;
using dsps::Tuple;
using dsps::Value;

class BurstSpout : public Spout {
 public:
  explicit BurstSpout(int total) : total_(total) {}
  void Open(const TaskContext& context) override {
    next_ = context.task_index;
    stride_ = context.num_tasks;
  }
  bool NextTuple(Collector* collector) override {
    // Bursts of up to 32 tuples per call.
    for (int b = 0; b < 32 && next_ < total_; ++b) {
      collector->Emit({Value(int64_t{next_})});
      next_ += stride_;
    }
    return next_ < total_;
  }

 private:
  int total_;
  int next_ = 0;
  int stride_ = 1;
};

/// A bolt that is deliberately slow: the queue in front of it must apply
/// backpressure instead of growing without bound.
class SlowBolt : public Bolt {
 public:
  explicit SlowBolt(std::shared_ptr<std::atomic<int64_t>> sum) : sum_(sum) {}
  void Execute(const Tuple& input, Collector*) override {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    sum_->fetch_add(input.Get(0).AsInt());
  }

 private:
  std::shared_ptr<std::atomic<int64_t>> sum_;
};

TEST(StressTest, BackpressureSlowBoltStillProcessesEverything) {
  static constexpr int kTuples = 4000;
  auto sum = std::make_shared<std::atomic<int64_t>>(0);
  dsps::TopologyBuilder builder;
  builder.SetSpout("burst", [] { return std::make_unique<BurstSpout>(kTuples); },
                   Fields({"v"}), 2, 2);
  builder.SetBolt("slow", [sum] { return std::make_unique<SlowBolt>(sum); },
                  Fields({}), 2)
      .ShuffleGrouping("burst");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  dsps::LocalRuntime::Options options;
  options.queue_capacity = 64;  // tiny queues force backpressure
  dsps::LocalRuntime runtime(std::move(*topology), options);
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  EXPECT_EQ(sum->load(), static_cast<int64_t>(kTuples) * (kTuples - 1) / 2);
}

TEST(StressTest, WideFanoutTopologyUnderLoad) {
  // 1 spout -> 3 parallel transform bolts -> 1 sink, 20k tuples.
  struct AddBolt : public Bolt {
    void Execute(const Tuple& input, Collector* collector) override {
      collector->Emit({Value(input.Get(0).AsInt() + 1)});
    }
  };
  auto count = std::make_shared<std::atomic<int64_t>>(0);
  struct CountBolt : public Bolt {
    std::shared_ptr<std::atomic<int64_t>> count;
    explicit CountBolt(std::shared_ptr<std::atomic<int64_t>> c) : count(c) {}
    void Execute(const Tuple&, Collector*) override { count->fetch_add(1); }
  };
  dsps::TopologyBuilder builder;
  builder.SetSpout("s", [] { return std::make_unique<BurstSpout>(20000); },
                   Fields({"v"}), 2, 2);
  for (const char* name : {"a", "b", "c"}) {
    builder.SetBolt(name, [] { return std::make_unique<AddBolt>(); },
                    Fields({"v"}), 2, 4)
        .ShuffleGrouping("s");
  }
  auto sink_declarer =
      builder.SetBolt("sink", [count] { return std::make_unique<CountBolt>(count); },
                      Fields({}), 2);
  sink_declarer.ShuffleGrouping("a").ShuffleGrouping("b").ShuffleGrouping("c");
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  dsps::LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  EXPECT_EQ(count->load(), 60000);  // 20k through each of the 3 bolts
}

TEST(StressTest, ConcurrentDfsAppendsToDistinctFiles) {
  dfs::MiniDfs::Options options;
  options.chunk_size = 128;
  dfs::MiniDfs fs(options);
  constexpr int kThreads = 8;
  constexpr int kAppends = 300;
  std::vector<Thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fs, t] {
      std::string path = "/stress/file" + std::to_string(t);
      for (int i = 0; i < kAppends; ++i) {
        ASSERT_TRUE(fs.AppendLine(path, "t" + std::to_string(t) + "i" +
                                            std::to_string(i))
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    auto content = fs.ReadAll("/stress/file" + std::to_string(t));
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(static_cast<int>(Split(*content, '\n').size()) - 1, kAppends);
  }
}

TEST(StressTest, ConcurrentStoreInsertAndThresholdQueries) {
  storage::TableStore store;
  ASSERT_TRUE(
      store.CreateTable("statistics_delay", storage::StatisticsColumns()).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> query_errors{0};
  Thread writer([&] {
    Rng rng(1);
    for (int i = 0; i < 3000; ++i) {
      (void)store.Insert("statistics_delay",
                         {storage::Value(static_cast<int64_t>(i % 50)),
                          storage::Value(static_cast<int64_t>(i % 24)),
                          storage::Value("weekday"),
                          storage::Value(rng.Uniform(0, 100)),
                          storage::Value(rng.Uniform(0, 10)),
                          storage::Value(int64_t{1})});
    }
    stop = true;
  });
  std::vector<Thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop) {
        auto result = storage::QueryThresholds(store, "delay", 1.0);
        if (!result.ok()) ++query_errors;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(query_errors.load(), 0);
  EXPECT_EQ(*store.RowCount("statistics_delay"), 3000u);
}

TEST(StressTest, MapReduceSurvivesHostileRecords) {
  dfs::MiniDfs fs;
  // Records with embedded quotes, long lines, empty lines and binary-ish
  // bytes; the statistics map must skip what it cannot parse and keep going.
  std::string data;
  data += "1,8,weekday,10\n";
  data += "\n";
  data += std::string(5000, 'x') + "\n";
  data += "\"unterminated,8,weekday,10\n";
  data += "1,8,weekday,\x01\x02\n";
  data += "1,8,weekday,20\n";
  ASSERT_TRUE(fs.Append("/hostile", data).ok());
  batch::StatisticsJobConfig config;
  config.input_paths = {"/hostile"};
  config.output_dir = "/out";
  config.hour_col = 1;
  config.date_type_col = 2;
  config.statistics = {{"delay", 3, 0}};
  auto counters = batch::RunStatisticsJob(&fs, config);
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  storage::TableStore store;
  ASSERT_TRUE(batch::LoadStatisticsIntoStore(fs, "/out", &store).ok());
  auto all = store.SelectAll("statistics_delay");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->rows.size(), 1u);
  EXPECT_EQ(all->rows[0][5].AsInt(), 2);           // two valid samples
  EXPECT_DOUBLE_EQ(all->rows[0][3].AsDouble(), 15.0);  // their mean
}

TEST(StressTest, EsperBoltSoakAcrossManyTasks) {
  // 6 concurrent engines fed 30k tuples through the real runtime; verifies
  // no lost tuples and consistent per-engine serial processing.
  auto config = std::make_shared<traffic::EsperBoltConfig>();
  config->rules_per_task.assign(
      6, {{"count_rule",
           "@Trigger(bus) SELECT count(*) AS n FROM bus.win:keepall() as b"}});
  traffic::TraceGenerator::Options gen_options;
  gen_options.num_buses = 50;
  gen_options.num_lines = 10;
  gen_options.start_hour = 8;
  gen_options.end_hour = 11;
  traffic::TraceGenerator generator(gen_options);
  // The service window bounds the dataset (50 buses x 3 h x 180/h ~= 27000).
  auto raw = generator.GenerateAll(30000);
  // Enrich minimally: the esper bolt needs the full 15-field schema.
  auto traces = std::make_shared<std::vector<traffic::BusTrace>>(std::move(raw));
  for (auto& t : *traces) {
    t.area_leaf = t.line_id;  // deterministic pseudo-region
    t.bus_stop = t.line_id;
  }

  struct EnricherPassthrough : public Bolt {
    void Execute(const Tuple& input, Collector* collector) override {
      std::vector<Value> out = input.values();
      out.push_back(20.0);                        // speed
      out.push_back(0.0);                         // actual_delay
      out.push_back(int64_t{8});                  // hour
      out.push_back(std::string("weekday"));      // date_type
      out.push_back(input.Get(1));                // area_leaf = line
      out.push_back(input.Get(1));                // bus_stop = line
      collector->Emit(std::move(out));
    }
  };

  dsps::TopologyBuilder builder;
  builder.SetSpout("reader",
                   [traces] {
                     return std::make_unique<traffic::BusReaderSpout>(traces);
                   },
                   traffic::RawTraceFields(), 2, 2);
  builder.SetBolt("enrich", [] { return std::make_unique<EnricherPassthrough>(); },
                  traffic::EnrichedFields({}), 2)
      .ShuffleGrouping("reader");
  builder.SetBolt("esper",
                  [config] { return std::make_unique<traffic::EsperBolt>(config); },
                  traffic::DetectionFields(), 6, 6)
      .FieldsGrouping("enrich", {"area_leaf"});
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  dsps::LocalRuntime runtime(std::move(*topology), {});
  ASSERT_TRUE(runtime.Start().ok());
  runtime.AwaitCompletion();
  auto totals = runtime.metrics()->Totals("esper");
  EXPECT_EQ(totals.executed, traces->size());
  EXPECT_GT(totals.executed, 20000u);
}

}  // namespace
}  // namespace insight
