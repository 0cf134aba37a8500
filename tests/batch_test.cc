#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string_view>

#include "batch/mapreduce.h"
#include "batch/statistics_job.h"
#include "common/strings.h"
#include "dfs/mini_dfs.h"

namespace insight {
namespace batch {
namespace {

// ---------------------------------------------------------------------------
// MiniDfs
// ---------------------------------------------------------------------------

TEST(MiniDfsTest, AppendReadRoundTrip) {
  dfs::MiniDfs fs;
  ASSERT_TRUE(fs.Append("/a/b.txt", "hello ").ok());
  ASSERT_TRUE(fs.Append("/a/b.txt", "world").ok());
  EXPECT_EQ(*fs.ReadAll("/a/b.txt"), "hello world");
  EXPECT_EQ(*fs.FileSize("/a/b.txt"), 11u);
  EXPECT_TRUE(fs.Exists("/a/b.txt"));
  EXPECT_FALSE(fs.Exists("/a/c.txt"));
}

TEST(MiniDfsTest, ChunksSplitAtBoundary) {
  dfs::MiniDfs::Options options;
  options.chunk_size = 10;
  options.replication = 2;
  options.num_datanodes = 3;
  dfs::MiniDfs fs(options);
  ASSERT_TRUE(fs.Append("/f", std::string(25, 'x')).ok());
  auto chunks = fs.GetChunks("/f");
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 3u);
  EXPECT_EQ((*chunks)[0].size, 10u);
  EXPECT_EQ((*chunks)[2].size, 5u);
  for (const auto& chunk : *chunks) {
    EXPECT_EQ(chunk.replica_nodes.size(), 2u);
    for (int node : chunk.replica_nodes) {
      EXPECT_GE(node, 0);
      EXPECT_LT(node, 3);
    }
  }
  EXPECT_EQ(*fs.ReadChunk("/f", 2), std::string(5, 'x'));
  EXPECT_FALSE(fs.ReadChunk("/f", 3).ok());
  EXPECT_EQ(*fs.ReadChunkRange("/f", 2, 3, 10), "xx");
  EXPECT_EQ(*fs.ReadChunkRange("/f", 2, 5, 1), "");
  EXPECT_FALSE(fs.ReadChunkRange("/f", 2, 6, 1).ok());
  EXPECT_FALSE(fs.ReadChunkRange("/f", 3, 0, 1).ok());
}

TEST(MiniDfsTest, ReplicasSpreadAcrossDatanodes) {
  dfs::MiniDfs::Options options;
  options.chunk_size = 1;
  options.replication = 3;
  options.num_datanodes = 5;
  dfs::MiniDfs fs(options);
  ASSERT_TRUE(fs.Append("/f", "abcdefgh").ok());
  std::set<int> nodes_used;
  auto chunks = fs.GetChunks("/f");
  ASSERT_TRUE(chunks.ok());
  for (const auto& chunk : *chunks) {
    std::set<int> replica_set(chunk.replica_nodes.begin(),
                              chunk.replica_nodes.end());
    EXPECT_EQ(replica_set.size(), 3u) << "replicas must be distinct";
    nodes_used.insert(replica_set.begin(), replica_set.end());
  }
  EXPECT_EQ(nodes_used.size(), 5u) << "round-robin must use all datanodes";
}

TEST(MiniDfsTest, ListAndDeleteRecursive) {
  dfs::MiniDfs fs;
  ASSERT_TRUE(fs.Append("/jobs/out/part-r-00000", "a").ok());
  ASSERT_TRUE(fs.Append("/jobs/out/part-r-00001", "b").ok());
  ASSERT_TRUE(fs.Append("/other", "c").ok());
  EXPECT_EQ(fs.List("/jobs/out/").size(), 2u);
  EXPECT_EQ(fs.DeleteRecursive("/jobs/out/"), 2u);
  EXPECT_EQ(fs.List("/jobs/out/").size(), 0u);
  EXPECT_TRUE(fs.Exists("/other"));
}

TEST(MiniDfsTest, CreateSemantics) {
  dfs::MiniDfs fs;
  EXPECT_TRUE(fs.Create("/f").ok());
  EXPECT_EQ(fs.Create("/f").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(*fs.FileSize("/f"), 0u);
  EXPECT_FALSE(fs.ReadAll("/nope").ok());
  EXPECT_FALSE(fs.Delete("/nope").ok());
}

// ---------------------------------------------------------------------------
// MapReduce
// ---------------------------------------------------------------------------

/// Emits (word, "1") per whitespace-separated word.
class WordMapper : public Mapper {
 public:
  void Map(std::string_view record, Emitter* emitter) override {
    for (const std::string& word : SplitWhitespace(record)) emitter->Emit(word, "1");
  }
};

/// Emits the value count per key.
void CountValues(const std::string& key, const std::vector<std::string>& values,
                 Emitter* emitter) {
  emitter->Emit(key, std::to_string(values.size()));
}

TEST(MapReduceTest, WordCount) {
  dfs::MiniDfs fs;
  ASSERT_TRUE(fs.Append("/in", "a b a\nc a b\n").ok());
  MapReduceJob::Spec spec;
  spec.input_paths = {"/in"};
  spec.output_dir = "/out";
  spec.num_reducers = 3;
  spec.mapper = [] { return std::make_unique<WordMapper>(); };
  spec.reduce = CountValues;
  auto counters = MapReduceJob::Run(&fs, spec);
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters->input_records, 2u);
  EXPECT_EQ(counters->map_output_records, 6u);
  EXPECT_EQ(counters->reduce_groups, 3u);

  auto output = ReadJobOutput(fs, "/out");
  ASSERT_TRUE(output.ok());
  std::map<std::string, std::string> result(output->begin(), output->end());
  EXPECT_EQ(result["a"], "3");
  EXPECT_EQ(result["b"], "2");
  EXPECT_EQ(result["c"], "1");
}

TEST(MapReduceTest, RecordSpanningChunkBoundaryIsHealed) {
  dfs::MiniDfs::Options options;
  options.chunk_size = 8;  // tiny chunks cut lines in half
  dfs::MiniDfs fs(options);
  ASSERT_TRUE(fs.Append("/in", "alpha beta\ngamma delta epsilon\nzeta\n").ok());
  ASSERT_GT(fs.GetChunks("/in")->size(), 2u);

  /// key = whole record
  class RecordMapper : public Mapper {
   public:
    void Map(std::string_view record, Emitter* emitter) override {
      emitter->Emit(std::string(record), "1");
    }
  };
  MapReduceJob::Spec spec;
  spec.input_paths = {"/in"};
  spec.output_dir = "/out";
  spec.num_reducers = 2;
  spec.mapper = [] { return std::make_unique<RecordMapper>(); };
  spec.reduce = CountValues;
  auto counters = MapReduceJob::Run(&fs, spec);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->map_tasks, fs.GetChunks("/in")->size());
  EXPECT_EQ(counters->input_records, 3u);
  // Every record must arrive exactly once and intact.
  auto output = ReadJobOutput(fs, "/out");
  ASSERT_TRUE(output.ok());
  std::map<std::string, std::string> result(output->begin(), output->end());
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result.at("alpha beta"), "1");
  EXPECT_EQ(result.at("gamma delta epsilon"), "1");
  EXPECT_EQ(result.at("zeta"), "1");
}

TEST(MapReduceTest, RecordStartingAtChunkBoundaryIsKept) {
  dfs::MiniDfs::Options options;
  options.chunk_size = 4;  // "abc\n" fills a chunk: "def" starts the next one
  dfs::MiniDfs fs(options);
  ASSERT_TRUE(fs.Append("/in", "abc\ndef\ngh\nijklmn\nop\n").ok());
  MapReduceJob::Spec spec;
  spec.input_paths = {"/in"};
  spec.output_dir = "/out";
  spec.mapper = [] { return std::make_unique<WordMapper>(); };
  spec.reduce = CountValues;
  auto counters = MapReduceJob::Run(&fs, spec);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->input_records, 5u);
  auto output = ReadJobOutput(fs, "/out");
  std::map<std::string, std::string> result(output->begin(), output->end());
  EXPECT_EQ(result, (std::map<std::string, std::string>{
                        {"abc", "1"}, {"def", "1"}, {"gh", "1"}, {"ijklmn", "1"},
                        {"op", "1"}}));
}

TEST(MapReduceTest, InMapperCombiningReducesShuffleVolume) {
  dfs::MiniDfs fs;
  std::string data;
  for (int i = 0; i < 100; ++i) data += "k v\n";
  ASSERT_TRUE(fs.Append("/in", data).ok());

  /// Counts records per task and emits the total from Finish.
  class CountingMapper : public Mapper {
   public:
    void Map(std::string_view, Emitter*) override { ++count_; }
    void Finish(Emitter* emitter) override {
      emitter->Emit("k", std::to_string(count_));
    }

   private:
    long long count_ = 0;
  };
  MapReduceJob::Spec spec;
  spec.input_paths = {"/in"};
  spec.output_dir = "/out";
  spec.mapper = [] { return std::make_unique<CountingMapper>(); };
  spec.reduce = [](const std::string& key, const std::vector<std::string>& values,
                   Emitter* e) {
    long long total = 0;
    for (const auto& v : values) total += *ParseInt(v);
    e->Emit(key, std::to_string(total));
  };
  auto counters = MapReduceJob::Run(&fs, spec);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->input_records, 100u);
  EXPECT_LT(counters->map_output_records, counters->input_records);
  EXPECT_EQ(counters->map_output_records, counters->map_tasks);
  auto output = ReadJobOutput(fs, "/out");
  ASSERT_EQ(output->size(), 1u);
  EXPECT_EQ((*output)[0].second, "100");
}

TEST(MapReduceTest, EmptyLinesAreRecordsButTrailingOnesAreNot) {
  dfs::MiniDfs fs;
  ASSERT_TRUE(fs.Append("/in", "a\n\nb\n\n\n").ok());
  class RecordMapper : public Mapper {
   public:
    void Map(std::string_view record, Emitter* emitter) override {
      emitter->Emit("[" + std::string(record) + "]", "1");
    }
  };
  MapReduceJob::Spec spec;
  spec.input_paths = {"/in"};
  spec.output_dir = "/out";
  spec.mapper = [] { return std::make_unique<RecordMapper>(); };
  spec.reduce = CountValues;
  auto counters = MapReduceJob::Run(&fs, spec);
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->input_records, 3u);
  auto output = ReadJobOutput(fs, "/out");
  std::map<std::string, std::string> result(output->begin(), output->end());
  EXPECT_EQ(result, (std::map<std::string, std::string>{
                        {"[a]", "1"}, {"[b]", "1"}, {"[]", "1"}}));
}

TEST(MapReduceTest, ValidatesSpec) {
  dfs::MiniDfs fs;
  MapReduceJob::Spec spec;
  EXPECT_FALSE(MapReduceJob::Run(&fs, spec).ok());  // no mapper/reduce
  spec.mapper = [] { return std::make_unique<WordMapper>(); };
  spec.reduce = [](const std::string&, const std::vector<std::string>&,
                   Emitter*) {};
  EXPECT_FALSE(MapReduceJob::Run(&fs, spec).ok());  // no inputs
  spec.input_paths = {"/missing"};
  EXPECT_EQ(MapReduceJob::Run(&fs, spec).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(fs.Append("/in", "a\n").ok());
  spec.input_paths = {"/in"};
  spec.num_reducers = 0;
  EXPECT_EQ(MapReduceJob::Run(&fs, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.num_reducers = 2;
  spec.mapper = [] { return std::unique_ptr<Mapper>(); };
  EXPECT_EQ(MapReduceJob::Run(&fs, spec).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Statistics job
// ---------------------------------------------------------------------------

TEST(StatisticsJobTest, ComputesMeanAndStdevPerGroup) {
  dfs::MiniDfs fs;
  // CSV: location(0), hour(1), dateType(2), delay(3).
  std::string rows;
  // Location 5, hour 8: delays 10, 20, 30 -> mean 20, stdev ~8.165.
  rows += "5,8,weekday,10\n5,8,weekday,20\n5,8,weekday,30\n";
  // Location 6, hour 8: constant 7 -> stdev 0.
  rows += "6,8,weekday,7\n6,8,weekday,7\n";
  // Weekend variant of location 5.
  rows += "5,8,weekend,100\n";
  ASSERT_TRUE(fs.Append("/traces", rows).ok());

  StatisticsJobConfig config;
  config.input_paths = {"/traces"};
  config.output_dir = "/stats";
  config.hour_col = 1;
  config.date_type_col = 2;
  config.statistics = {{"delay", 3, 0}};
  auto counters = RunStatisticsJob(&fs, config);
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters->reduce_groups, 3u);

  storage::TableStore store;
  auto loaded = LoadStatisticsIntoStore(fs, "/stats", &store);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 3u);

  auto t = storage::QueryThresholdFor(store, "delay", 1.0, 5, 8, "weekday");
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(*t, 20.0 + 8.16496580927726, 1e-6);
  auto constant = storage::QueryThresholdFor(store, "delay", 3.0, 6, 8, "weekday");
  ASSERT_TRUE(constant.ok());
  EXPECT_DOUBLE_EQ(*constant, 7.0);
}

TEST(StatisticsJobTest, ReloadTruncatesOldRows) {
  dfs::MiniDfs fs;
  ASSERT_TRUE(fs.Append("/traces", "1,8,weekday,10\n").ok());
  StatisticsJobConfig config;
  config.input_paths = {"/traces"};
  config.output_dir = "/stats";
  config.hour_col = 1;
  config.date_type_col = 2;
  config.statistics = {{"delay", 3, 0}};
  storage::TableStore store;
  ASSERT_TRUE(RunStatisticsJob(&fs, config).ok());
  ASSERT_TRUE(LoadStatisticsIntoStore(fs, "/stats", &store).ok());
  ASSERT_TRUE(RunStatisticsJob(&fs, config).ok());
  ASSERT_TRUE(LoadStatisticsIntoStore(fs, "/stats", &store).ok());
  EXPECT_EQ(*store.RowCount("statistics_delay"), 1u);  // truncated, not doubled
}

TEST(StatisticsJobTest, SkipsMalformedRecords) {
  dfs::MiniDfs fs;
  ASSERT_TRUE(
      fs.Append("/traces", "1,8,weekday,10\ngarbage\n1,8,weekday,notanum\n")
          .ok());
  StatisticsJobConfig config;
  config.input_paths = {"/traces"};
  config.output_dir = "/stats";
  config.hour_col = 1;
  config.date_type_col = 2;
  config.statistics = {{"delay", 3, 0}};
  auto counters = RunStatisticsJob(&fs, config);
  ASSERT_TRUE(counters.ok());
  storage::TableStore store;
  ASSERT_TRUE(LoadStatisticsIntoStore(fs, "/stats", &store).ok());
  auto all = store.SelectAll("statistics_delay");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->rows.size(), 1u);
  EXPECT_EQ(all->rows[0][5].AsInt(), 1);  // only one valid sample counted
}

TEST(StatisticsJobTest, ComputesSeveralStatisticsInOnePass) {
  dfs::MiniDfs fs;
  // CSV: area(0), stop(1), hour(2), dateType(3), delay(4), speed(5).
  ASSERT_TRUE(fs.Append("/traces",
                        "5,70,8,weekday,10,30\n"
                        "5,71,8,weekday,20,x\n"
                        "6,70,8,weekday,30,50\n")
                  .ok());
  StatisticsJobConfig config;
  config.input_paths = {"/traces"};
  config.output_dir = "/stats";
  config.hour_col = 2;
  config.date_type_col = 3;
  config.statistics = {{"delay", 4, 0}, {"delay_stop", 4, 1}, {"speed", 5, 0}};
  auto counters = RunStatisticsJob(&fs, config);
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters->input_records, 3u);
  auto output = ReadJobOutput(fs, "/stats");
  ASSERT_TRUE(output.ok());
  std::map<std::string, std::string> result(output->begin(), output->end());
  EXPECT_EQ(result, (std::map<std::string, std::string>{
                        {"delay|5|8|weekday", "15,5,2"},
                        {"delay|6|8|weekday", "30,0,1"},
                        {"delay_stop|70|8|weekday", "20,10,2"},
                        {"delay_stop|71|8|weekday", "20,0,1"},
                        {"speed|5|8|weekday", "30,0,1"},
                        {"speed|6|8|weekday", "50,0,1"}}));
}

TEST(StatisticsJobTest, ValidatesConfig) {
  dfs::MiniDfs fs;
  ASSERT_TRUE(fs.Append("/traces", "1,8,weekday,10\n").ok());
  StatisticsJobConfig config;
  config.input_paths = {"/traces"};
  config.hour_col = 1;
  config.date_type_col = 2;
  EXPECT_FALSE(RunStatisticsJob(&fs, config).ok());  // no statistics
  config.statistics = {{"delay", 3, -1}};
  EXPECT_FALSE(RunStatisticsJob(&fs, config).ok());  // no location column
  config.statistics = {{"delay", 3, 0}, {"delay", 3, 1}};
  EXPECT_FALSE(RunStatisticsJob(&fs, config).ok());  // duplicate name
  config.statistics = {{"delay", 3, 0}};
  config.hour_col = -1;
  EXPECT_FALSE(RunStatisticsJob(&fs, config).ok());  // no hour column
  config.hour_col = 1;
  EXPECT_TRUE(RunStatisticsJob(&fs, config).ok());
}

}  // namespace
}  // namespace batch
}  // namespace insight
