#include <gtest/gtest.h>

#include "common/thread.h"
#include "storage/table_store.h"

namespace insight {
namespace storage {
namespace {

class TableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateTable("statistics_delay", StatisticsColumns()).ok());
  }

  void InsertStat(int64_t area, int64_t hour, const std::string& day,
                  double mean, double stdv, int64_t count = 10) {
    ASSERT_TRUE(store_
                    .Insert("statistics_delay",
                            {Value(area), Value(hour), Value(day), Value(mean),
                             Value(stdv), Value(count)})
                    .ok());
  }

  TableStore store_;
};

TEST_F(TableStoreTest, CreateInsertSelect) {
  InsertStat(1, 8, "weekday", 100.0, 20.0);
  InsertStat(2, 8, "weekday", 50.0, 5.0);
  auto all = store_.SelectAll("statistics_delay");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 2u);
  EXPECT_EQ(all->ColumnIndex("attr_mean"), 3);
}

TEST_F(TableStoreTest, DuplicateCreateFails) {
  EXPECT_EQ(store_.CreateTable("statistics_delay", StatisticsColumns()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(TableStoreTest, SchemaMismatchRejected) {
  EXPECT_EQ(store_.Insert("statistics_delay", {Value(1)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.Insert("nosuch", {}).code(), StatusCode::kNotFound);
}

TEST_F(TableStoreTest, TruncateKeepsSchema) {
  InsertStat(1, 8, "weekday", 1, 1);
  ASSERT_TRUE(store_.Truncate("statistics_delay").ok());
  EXPECT_EQ(*store_.RowCount("statistics_delay"), 0u);
  InsertStat(1, 8, "weekday", 1, 1);  // still insertable
  EXPECT_EQ(*store_.RowCount("statistics_delay"), 1u);
}

TEST_F(TableStoreTest, Listing2ThresholdQuery) {
  InsertStat(7, 8, "weekday", 100.0, 20.0);
  InsertStat(7, 9, "weekday", 50.0, 10.0);
  InsertStat(9, 8, "weekend", 30.0, 5.0);
  auto thresholds = QueryThresholds(store_, "delay", 2.0);
  ASSERT_TRUE(thresholds.ok());
  ASSERT_EQ(thresholds->size(), 3u);
  // mean + 2*stdv.
  bool found = false;
  for (const ThresholdRow& row : *thresholds) {
    if (row.location == 7 && row.hour == 8) {
      EXPECT_DOUBLE_EQ(row.threshold, 140.0);
      EXPECT_EQ(row.date_type, "weekday");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TableStoreTest, DistinctDropsDuplicateProjectedRows) {
  InsertStat(7, 8, "weekday", 100.0, 20.0);
  InsertStat(7, 8, "weekday", 100.0, 20.0);  // exact duplicate row
  auto thresholds = QueryThresholds(store_, "delay", 1.0);
  ASSERT_TRUE(thresholds.ok());
  EXPECT_EQ(thresholds->size(), 1u);
}

TEST_F(TableStoreTest, DistinctKeepsThresholdsThatAgreeToSixDigits) {
  // 100.0001 and 100.0002 print alike with %g; they are distinct rows.
  InsertStat(7, 8, "weekday", 100.0001, 0.0);
  InsertStat(7, 8, "weekday", 100.0002, 0.0);
  auto thresholds = QueryThresholds(store_, "delay", 1.0);
  ASSERT_TRUE(thresholds.ok());
  ASSERT_EQ(thresholds->size(), 2u);
  EXPECT_EQ((*thresholds)[0].threshold, 100.0001);
  EXPECT_EQ((*thresholds)[1].threshold, 100.0002);
}

TEST_F(TableStoreTest, ScanVisitsRowsInOrderAndCountsOneQuery) {
  InsertStat(7, 8, "weekday", 100.0, 20.0);
  InsertStat(9, 10, "weekend", 50.0, 5.0);
  std::vector<std::string> seen;
  ASSERT_TRUE(store_
                  .Scan("statistics_delay", {"dateType", "areaId"},
                        [&](const std::vector<const Value*>& values) {
                          seen.push_back(values[0]->AsString() + "@" +
                                         std::to_string(values[1]->AsInt()));
                        })
                  .ok());
  EXPECT_EQ(seen, std::vector<std::string>({"weekday@7", "weekend@9"}));
  EXPECT_EQ(store_.query_count(), 1u);
  EXPECT_EQ(store_.Scan("statistics_delay", {"nope"}, [](const auto&) {}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store_.Scan("missing", {"areaId"}, [](const auto&) {}).code(),
            StatusCode::kNotFound);
}

TEST_F(TableStoreTest, PointThresholdLookup) {
  InsertStat(7, 8, "weekday", 100.0, 20.0);
  auto t = QueryThresholdFor(store_, "delay", 1.0, 7, 8, "weekday");
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(*t, 120.0);
  EXPECT_EQ(QueryThresholdFor(store_, "delay", 1.0, 7, 9, "weekday")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(TableStoreTest, QueryCostAccounting) {
  TableStore::Options options;
  options.simulated_query_cost_micros = 1000;
  TableStore store(options);
  ASSERT_TRUE(store.CreateTable("statistics_delay", StatisticsColumns()).ok());
  EXPECT_EQ(store.query_count(), 0u);
  (void)QueryThresholds(store, "delay", 1.0);
  (void)QueryThresholds(store, "delay", 1.0);
  EXPECT_EQ(store.query_count(), 2u);
  EXPECT_EQ(store.charged_cost_micros(), 2000);
}

TEST_F(TableStoreTest, ConcurrentReadersAndWriters) {
  Thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      InsertStat(i % 10, i % 24, "weekday", i, 1.0);
    }
  });
  Thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      auto result = QueryThresholds(store_, "delay", 1.0);
      ASSERT_TRUE(result.ok());
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(*store_.RowCount("statistics_delay"), 500u);
}

TEST_F(TableStoreTest, DropTable) {
  EXPECT_TRUE(store_.DropTable("statistics_delay").ok());
  EXPECT_FALSE(store_.HasTable("statistics_delay"));
  EXPECT_EQ(store_.DropTable("statistics_delay").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace storage
}  // namespace insight
