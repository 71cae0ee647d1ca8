#include "api/vcq.h"

#include <gtest/gtest.h>

#include "benchutil/bench.h"
#include "common/env_util.h"
#include "datagen/tpch.h"

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;

const Database& TestDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.01));
  return *db;
}

TEST(ApiTest, NamesAreStable) {
  EXPECT_STREQ(EngineName(Engine::kTyper), "Typer");
  EXPECT_STREQ(EngineName(Engine::kTectorwise), "Tectorwise");
  EXPECT_STREQ(EngineName(Engine::kVolcano), "Volcano");
  EXPECT_STREQ(QueryName(Query::kQ1), "Q1");
  EXPECT_STREQ(QueryName(Query::kSsbQ41), "SSB-Q4.1");
}

TEST(ApiTest, QueryListsPartitionTheWorkload) {
  EXPECT_EQ(TpchQueries().size(), 5u);
  EXPECT_EQ(SsbQueries().size(), 4u);
  for (Query q : TpchQueries()) EXPECT_FALSE(IsSsbQuery(q));
  for (Query q : SsbQueries()) EXPECT_TRUE(IsSsbQuery(q));
}

TEST(ApiTest, AdaptiveQ1MatchesStandardPlans) {
  // The §8.4 ordered-aggregation variant must be result-identical.
  const auto expected = RunQuery(TestDb(), Engine::kTyper, Query::kQ1, {});
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t vecsize : {size_t{16}, size_t{1024}}) {
      QueryOptions opt;
      opt.threads = threads;
      opt.vector_size = vecsize;
      opt.adaptive = true;
      EXPECT_EQ(RunQuery(TestDb(), Engine::kTectorwise, Query::kQ1, opt),
                expected)
          << "threads=" << threads << " vecsize=" << vecsize;
    }
  }
}

TEST(ApiTest, RofQ9MatchesStandardPlans) {
  // The §9.1 relaxed-operator-fusion variant must be result-identical.
  const auto expected = RunQuery(TestDb(), Engine::kTyper, Query::kQ9, {});
  for (size_t threads : {size_t{1}, size_t{4}}) {
    QueryOptions opt;
    opt.threads = threads;
    opt.rof = true;
    EXPECT_EQ(RunQuery(TestDb(), Engine::kTyper, Query::kQ9, opt), expected)
        << "threads=" << threads;
  }
}

TEST(BenchUtilTest, TuplesScannedMatchesCardinalities) {
  const Database& db = TestDb();
  EXPECT_EQ(benchutil::TuplesScanned(db, Query::kQ1),
            db["lineitem"].tuple_count());
  EXPECT_EQ(benchutil::TuplesScanned(db, Query::kQ3),
            db["customer"].tuple_count() + db["orders"].tuple_count() +
                db["lineitem"].tuple_count());
  EXPECT_EQ(benchutil::TuplesScanned(db, Query::kQ9),
            db["part"].tuple_count() + db["supplier"].tuple_count() +
                db["partsupp"].tuple_count() + db["orders"].tuple_count() +
                db["lineitem"].tuple_count());
}

TEST(BenchUtilTest, MeasureReportsMedianAndRuns) {
  int calls = 0;
  const auto m = benchutil::Measure([&] { ++calls; }, 5);
  EXPECT_EQ(calls, 6);  // 5 timed reps + 1 counter run
  EXPECT_GE(m.ms, 0.0);
}

TEST(BenchUtilTest, Formatting) {
  EXPECT_EQ(benchutil::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(benchutil::FmtCounter(
                std::numeric_limits<double>::quiet_NaN()),
            "n/a");
  EXPECT_EQ(benchutil::FmtCounter(2.5, 1), "2.5");
}

TEST(EnvUtilTest, ParsesAndDefaults) {
  setenv("VCQ_TEST_INT", "42", 1);
  setenv("VCQ_TEST_DOUBLE", "2.5", 1);
  setenv("VCQ_TEST_BAD", "xyz", 1);
  EXPECT_EQ(EnvInt("VCQ_TEST_INT", 7), 42);
  EXPECT_EQ(EnvDouble("VCQ_TEST_DOUBLE", 7.0), 2.5);
  EXPECT_EQ(EnvInt("VCQ_TEST_BAD", 7), 7);
  EXPECT_EQ(EnvInt("VCQ_TEST_UNSET_____", 7), 7);
  EXPECT_FALSE(EnvFlag("VCQ_TEST_UNSET_____"));
  setenv("VCQ_TEST_FLAG", "1", 1);
  EXPECT_TRUE(EnvFlag("VCQ_TEST_FLAG"));
  setenv("VCQ_TEST_FLAG", "0", 1);
  EXPECT_FALSE(EnvFlag("VCQ_TEST_FLAG"));
}

}  // namespace
}  // namespace vcq
