#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "common/csv.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/xml.h"

namespace insight {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status status = Status::NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().ok());  // status() of an OK result is OK
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  INSIGHT_ASSIGN_OR_RETURN(int h, Half(x));
  INSIGHT_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimAndLower) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("SeLeCt"), "select");
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble(" 3.5 "), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("3.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, ParseIntStrict) {
  EXPECT_EQ(*ParseInt("-42"), -42);
  EXPECT_FALSE(ParseInt("42.5").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
}

TEST(StringsTest, ParseBoolVariants) {
  EXPECT_TRUE(*ParseBool("TRUE"));
  EXPECT_TRUE(*ParseBool("1"));
  EXPECT_FALSE(*ParseBool("no"));
  EXPECT_FALSE(ParseBool("maybe").ok());
}

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(CsvTest, RoundTripWithQuoting) {
  std::ostringstream out;
  CsvWriter writer(&out);
  writer.Write({"plain", "has,comma", "has\"quote", ""});
  std::istringstream in(out.str());
  CsvReader reader(&in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "has,comma");
  EXPECT_EQ(fields[2], "has\"quote");
  EXPECT_EQ(fields[3], "");
  EXPECT_FALSE(reader.Next(&fields));
  EXPECT_TRUE(reader.last_status().ok());
}

TEST(CsvTest, HandlesCrLf) {
  std::istringstream in("a,b\r\nc,d\r\n");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields[1], "b");
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields[0], "c");
}

TEST(CsvTest, RejectsBadQuoting) {
  std::istringstream in("a,\"unterminated\n");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  EXPECT_FALSE(reader.Next(&fields));
  EXPECT_FALSE(reader.last_status().ok());
}

TEST(CsvTest, CsvFieldsAgreesWithParseCsvLine) {
  // Random lines over the bytes the quoting rules care about, plus fixed
  // edge cases: every line must be accepted or rejected alike, with the
  // same fields.
  std::vector<std::string> lines = {"",        ",",         "\"\"",    "\"\"\"",
                                    "\"\"\"\"", "\"a\"b",    "a\"b",   "\"a,b\",c",
                                    "\"a\"\"b\"", "\"\",\"\"", "x,\"y",  " \"a\"",
                                    "a,b\r",   std::string("a\0b,c", 5)};
  const char alphabet[] = {'a', '1', ',', '"', ' ', '\r', '\t', '\0'};
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    std::string line;
    const uint64_t length = rng.NextUint(12);
    for (uint64_t j = 0; j < length; ++j) {
      line += alphabet[rng.NextUint(sizeof(alphabet))];
    }
    lines.push_back(line);
  }
  CsvFields fields;
  size_t accepted = 0;
  for (const std::string& line : lines) {
    auto expected = ParseCsvLine(line);
    ASSERT_EQ(fields.Parse(line), expected.ok()) << line;
    if (!expected.ok()) continue;
    ++accepted;
    ASSERT_EQ(fields.size(), expected->size()) << line;
    for (size_t f = 0; f < fields.size(); ++f) {
      EXPECT_EQ(fields[f], (*expected)[f]) << line;
      EXPECT_EQ(fields.c_str(f)[fields[f].size()], '\0');
    }
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_LT(accepted, lines.size());
}

TEST(CsvTest, AppendCsvFieldQuotesLikeCsvWriter) {
  const std::vector<std::string> fields = {"",         "plain", "a,b",
                                           "say \"hi\"", "cr\r",  "nl\n"};
  for (const std::string& field : fields) {
    std::ostringstream written;
    CsvWriter(&written).Write({field});
    std::string appended;
    AppendCsvField(field, &appended);
    EXPECT_EQ(appended + "\n", written.str());
  }
}

// ---------------------------------------------------------------------------
// XML
// ---------------------------------------------------------------------------

TEST(XmlTest, ParsesElementsAttributesText) {
  auto root = ParseXml(R"(<?xml version="1.0"?>
    <!-- a comment -->
    <topology name="t">
      <spout name="s" executors='2'><param key="k" value="v"/></spout>
      <rules><rule name="r"><![CDATA[SELECT * FROM x WHERE a < b]]></rule></rules>
    </topology>)");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ((*root)->name, "topology");
  EXPECT_EQ((*root)->Attr("name"), "t");
  const XmlNode* spout = (*root)->FirstChild("spout");
  ASSERT_NE(spout, nullptr);
  EXPECT_EQ(spout->Attr("executors"), "2");
  const XmlNode* rules = (*root)->FirstChild("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_EQ(rules->Children("rule").size(), 1u);
  EXPECT_EQ(rules->Children("rule")[0]->text, "SELECT * FROM x WHERE a < b");
}

TEST(XmlTest, DecodesEntities) {
  auto root = ParseXml("<a v=\"1 &lt; 2 &amp; 3\">x &gt; y</a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->Attr("v"), "1 < 2 & 3");
  EXPECT_EQ((*root)->text, "x > y");
}

TEST(XmlTest, RejectsMismatchedTags) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());  // two roots
}

// ---------------------------------------------------------------------------
// Rng / Stats
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stdev(), 2.0, 0.1);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 1.25);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    double v = rng.Gaussian(5, 3);
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(PercentileTest, InterpolatesSorted) {
  std::vector<double> v{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitThenMoreWork) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace insight
