#include <gtest/gtest.h>

#include <map>

#include "api/vcq.h"
#include "datagen/tpch.h"
#include "runtime/types.h"

// Cross-engine equivalence: Typer, Tectorwise (scalar and SIMD, several
// vector sizes, several thread counts) and Volcano must all produce the
// identical normalized result for every studied query. Volcano is lowered
// from the query's reference SQL text (sql/reference_queries.h), so it
// stays structurally independent of the hand-built Typer and Tectorwise
// plans. Q1/Q6 are additionally checked against simple std::map
// references computed here.

namespace vcq {
namespace {

using runtime::Char;
using runtime::Database;
using runtime::DateFromString;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::ResultBuilder;

const Database& TestDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.03));
  return *db;
}

QueryResult ReferenceQ6(const Database& db) {
  const auto& li = db["lineitem"];
  const auto shipdate = li.Col<int32_t>("l_shipdate");
  const auto discount = li.Col<int64_t>("l_discount");
  const auto quantity = li.Col<int64_t>("l_quantity");
  const auto extprice = li.Col<int64_t>("l_extendedprice");
  const int32_t lo = DateFromString("1994-01-01");
  const int32_t hi = DateFromString("1995-01-01") - 1;
  int64_t total = 0;
  for (size_t i = 0; i < li.tuple_count(); ++i) {
    if (shipdate[i] >= lo && shipdate[i] <= hi && discount[i] >= 5 &&
        discount[i] <= 7 && quantity[i] < 2400) {
      total += extprice[i] * discount[i];
    }
  }
  ResultBuilder rb({"revenue"});
  rb.BeginRow().Numeric(total, 4);
  return rb.Finish();
}

QueryResult ReferenceQ1(const Database& db) {
  const auto& li = db["lineitem"];
  const auto shipdate = li.Col<int32_t>("l_shipdate");
  const auto rf = li.Col<Char<1>>("l_returnflag");
  const auto ls = li.Col<Char<1>>("l_linestatus");
  const auto qty = li.Col<int64_t>("l_quantity");
  const auto extprice = li.Col<int64_t>("l_extendedprice");
  const auto discount = li.Col<int64_t>("l_discount");
  const auto tax = li.Col<int64_t>("l_tax");
  const int32_t cutoff = DateFromString("1998-09-02");
  struct Agg {
    int64_t qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0,
            count = 0;
  };
  std::map<std::pair<char, char>, Agg> groups;
  for (size_t i = 0; i < li.tuple_count(); ++i) {
    if (shipdate[i] > cutoff) continue;
    Agg& a = groups[{rf[i].data[0], ls[i].data[0]}];
    const int64_t dp = extprice[i] * (100 - discount[i]);
    a.qty += qty[i];
    a.base += extprice[i];
    a.disc_price += dp;
    a.charge += dp * (100 + tax[i]);
    a.disc += discount[i];
    a.count += 1;
  }
  ResultBuilder rb({"l_returnflag", "l_linestatus", "sum_qty",
                    "sum_base_price", "sum_disc_price", "sum_charge",
                    "avg_qty", "avg_price", "avg_disc", "count_order"});
  for (const auto& [key, a] : groups) {
    rb.BeginRow()
        .Str(std::string_view(&key.first, 1))
        .Str(std::string_view(&key.second, 1))
        .Numeric(a.qty, 2)
        .Numeric(a.base, 2)
        .Numeric(a.disc_price, 4)
        .Numeric(a.charge, 6)
        .Avg(a.qty, a.count, 2, 2)
        .Avg(a.base, a.count, 2, 2)
        .Avg(a.disc, a.count, 2, 2)
        .Int(a.count);
  }
  return rb.Finish();
}

struct EngineConfig {
  Engine engine;
  size_t threads;
  size_t vector_size;
  bool simd;

  std::string Label() const {
    return std::string(EngineName(engine)) + "_t" + std::to_string(threads) +
           "_v" + std::to_string(vector_size) + (simd ? "_simd" : "");
  }
};

class CrossEngineTest
    : public ::testing::TestWithParam<std::tuple<Query, EngineConfig>> {};

TEST_P(CrossEngineTest, MatchesTyperSingleThread) {
  const auto [query, config] = GetParam();
  QueryOptions base;
  base.threads = 1;
  const QueryResult expected =
      RunQuery(TestDb(), Engine::kTyper, query, base);

  QueryOptions opt;
  opt.threads = config.threads;
  opt.vector_size = config.vector_size;
  opt.simd = config.simd;
  const QueryResult got = RunQuery(TestDb(), config.engine, query, opt);
  EXPECT_EQ(got, expected)
      << config.Label() << " on " << QueryName(query) << "\nexpected:\n"
      << expected.ToString(12) << "\ngot:\n"
      << got.ToString(12);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, CrossEngineTest,
    ::testing::Combine(
        ::testing::Values(Query::kQ1, Query::kQ6, Query::kQ3, Query::kQ9,
                          Query::kQ18),
        ::testing::Values(
            EngineConfig{Engine::kTectorwise, 1, 1024, false},
            EngineConfig{Engine::kTectorwise, 1, 1024, true},
            EngineConfig{Engine::kTectorwise, 1, 16, false},
            EngineConfig{Engine::kTectorwise, 1, 4093, false},
            EngineConfig{Engine::kTectorwise, 4, 1024, false},
            EngineConfig{Engine::kTectorwise, 4, 1024, true},
            EngineConfig{Engine::kTectorwise, 7, 255, false},
            EngineConfig{Engine::kTyper, 4, 1024, false},
            EngineConfig{Engine::kTyper, 7, 1024, false},
            EngineConfig{Engine::kVolcano, 1, 1024, false})),
    [](const auto& info) {
      return std::string(QueryName(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param).Label();
    });

TEST(ReferenceTest, Q6AllEngines) {
  const QueryResult expected = ReferenceQ6(TestDb());
  for (Engine e :
       {Engine::kTyper, Engine::kTectorwise, Engine::kVolcano}) {
    EXPECT_EQ(RunQuery(TestDb(), e, Query::kQ6, {}), expected)
        << EngineName(e);
  }
}

TEST(ReferenceTest, Q1AllEngines) {
  const QueryResult expected = ReferenceQ1(TestDb());
  for (Engine e :
       {Engine::kTyper, Engine::kTectorwise, Engine::kVolcano}) {
    EXPECT_EQ(RunQuery(TestDb(), e, Query::kQ1, {}), expected)
        << EngineName(e);
  }
}

TEST(ResultShapeTest, Q1HasFourGroups) {
  const QueryResult r = RunQuery(TestDb(), Engine::kTyper, Query::kQ1, {});
  EXPECT_EQ(r.rows.size(), 4u);  // A/F, N/F, N/O, R/F
}

TEST(ResultShapeTest, Q3TopTen) {
  const QueryResult r = RunQuery(TestDb(), Engine::kTyper, Query::kQ3, {});
  EXPECT_LE(r.rows.size(), 10u);
  EXPECT_GT(r.rows.size(), 0u);
  // Revenue (column 1) is non-increasing.
  for (size_t i = 1; i < r.rows.size(); ++i)
    EXPECT_GE(std::stod(r.rows[i - 1][1]), std::stod(r.rows[i][1]));
}

TEST(ResultShapeTest, Q9CoversNationsAndYears) {
  const QueryResult r = RunQuery(TestDb(), Engine::kTyper, Query::kQ9, {});
  // 25 nations x 7 order years, most populated even at small SF.
  EXPECT_GT(r.rows.size(), 100u);
  EXPECT_LE(r.rows.size(), 25u * 7u);
}

TEST(ResultShapeTest, Q18RespectsHavingAndLimit) {
  const QueryResult r = RunQuery(TestDb(), Engine::kTyper, Query::kQ18, {});
  EXPECT_LE(r.rows.size(), 100u);
  for (const auto& row : r.rows)
    EXPECT_GT(std::stod(row[5]), 300.0);  // sum_qty > 300
}

TEST(StabilityTest, RepeatedRunsIdentical) {
  QueryOptions opt;
  opt.threads = 8;
  const QueryResult first =
      RunQuery(TestDb(), Engine::kTectorwise, Query::kQ3, opt);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RunQuery(TestDb(), Engine::kTectorwise, Query::kQ3, opt),
              first)
        << "run " << i;
  }
}

TEST(ScaleInvariantsTest, Q6RevenueGrowsWithScale) {
  const Database small = datagen::GenerateTpch(0.01);
  const Database large = datagen::GenerateTpch(0.02);
  const auto rev = [](const Database& db) {
    return std::stod(RunQuery(db, Engine::kTyper, Query::kQ6, {}).rows[0][0]);
  };
  EXPECT_GT(rev(large), rev(small) * 1.5);
}

}  // namespace
}  // namespace vcq
