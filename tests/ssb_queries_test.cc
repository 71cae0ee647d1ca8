#include <gtest/gtest.h>

#include "api/session.h"
#include "api/vcq.h"
#include "datagen/ssb.h"
#include "runtime/types.h"

// SSB: Typer and Tectorwise are independent implementations and must agree;
// Q1.1 is additionally checked against a plain reference scan. Q1.1 also
// runs with bindings whose lineorder filter passes no row and every row,
// the two extremes of Typer's branch-free selection stage.

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::ResultBuilder;

const Database& TestDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.05));
  return *db;
}

/// SSB-Q1.1 bindings: the catalog defaults, or lineorder filters that pass
/// no row (quantity < 1) or every row (discount 0-10, quantity < 51).
enum class Bindings { kDefault, kNoRow, kEveryRow };

struct Q11Filter {
  int64_t discount_lo, discount_hi, quantity_max;
};

Q11Filter FilterFor(Bindings b) {
  switch (b) {
    case Bindings::kDefault: return {1, 3, 25};
    case Bindings::kNoRow: return {1, 3, 1};
    case Bindings::kEveryRow: return {0, 10, 51};
  }
  return {};
}

const char* BindingsName(Bindings b) {
  switch (b) {
    case Bindings::kDefault: return "";
    case Bindings::kNoRow: return "_norow";
    case Bindings::kEveryRow: return "_everyrow";
  }
  return "";
}

/// Runs `query` on a fresh session with the catalog defaults, SSB-Q1.1's
/// lineorder filter overridden by `bindings`.
QueryResult RunBound(Engine engine, Query query, const QueryOptions& opt,
                     Bindings bindings) {
  if (bindings == Bindings::kDefault)
    return RunQuery(TestDb(), engine, query, opt);
  const Q11Filter f = FilterFor(bindings);
  Session session(TestDb());
  PreparedQuery q = session.Prepare(engine, query, opt);
  q.Set("discount_lo", f.discount_lo)
      .Set("discount_hi", f.discount_hi)
      .Set("quantity_max", f.quantity_max);
  return q.Execute();
}

QueryResult ReferenceQ11(const Database& db, Q11Filter f) {
  const auto& lo = db["lineorder"];
  const auto& date = db["date"];
  const auto d_datekey = date.Col<int32_t>("d_datekey");
  const auto d_year = date.Col<int32_t>("d_year");
  std::unordered_map<int32_t, int32_t> year_of;
  for (size_t i = 0; i < date.tuple_count(); ++i)
    year_of[d_datekey[i]] = d_year[i];
  const auto orderdate = lo.Col<int32_t>("lo_orderdate");
  const auto discount = lo.Col<int64_t>("lo_discount");
  const auto quantity = lo.Col<int64_t>("lo_quantity");
  const auto extprice = lo.Col<int64_t>("lo_extendedprice");
  int64_t total = 0;
  for (size_t i = 0; i < lo.tuple_count(); ++i) {
    if (discount[i] < f.discount_lo || discount[i] > f.discount_hi ||
        quantity[i] >= f.quantity_max) {
      continue;
    }
    const auto it = year_of.find(orderdate[i]);
    if (it == year_of.end() || it->second != 1993) continue;
    total += extprice[i] * discount[i];
  }
  ResultBuilder rb({"revenue"});
  rb.BeginRow().Numeric(total, 4);
  return rb.Finish();
}

struct SsbConfig {
  size_t threads;
  size_t vector_size;
  bool simd;
  Bindings bindings = Bindings::kDefault;
};

class SsbCrossEngineTest
    : public ::testing::TestWithParam<std::tuple<Query, SsbConfig>> {};

TEST_P(SsbCrossEngineTest, TyperAndTectorwiseAgree) {
  const auto [query, config] = GetParam();
  QueryOptions base;
  base.threads = 1;
  const QueryResult expected =
      RunBound(Engine::kTyper, query, base, config.bindings);

  QueryOptions opt;
  opt.threads = config.threads;
  opt.vector_size = config.vector_size;
  opt.simd = config.simd;
  const QueryResult tw =
      RunBound(Engine::kTectorwise, query, opt, config.bindings);
  EXPECT_EQ(tw, expected) << QueryName(query) << "\nexpected:\n"
                          << expected.ToString(12) << "\ngot:\n"
                          << tw.ToString(12);
  const QueryResult typer_mt =
      RunBound(Engine::kTyper, query, opt, config.bindings);
  EXPECT_EQ(typer_mt, expected) << QueryName(query) << " typer multithread";
}

std::string ConfigName(const auto& info) {
  std::string name = QueryName(std::get<0>(info.param));
  for (char& c : name)
    if (c == '-' || c == '.') c = '_';
  const SsbConfig& c = std::get<1>(info.param);
  return name + "_t" + std::to_string(c.threads) + "_v" +
         std::to_string(c.vector_size) + (c.simd ? "_simd" : "") +
         BindingsName(c.bindings);
}

INSTANTIATE_TEST_SUITE_P(
    AllSsb, SsbCrossEngineTest,
    ::testing::Combine(::testing::Values(Query::kSsbQ11, Query::kSsbQ21,
                                         Query::kSsbQ31, Query::kSsbQ41),
                       ::testing::Values(SsbConfig{1, 1024, false},
                                         SsbConfig{1, 1024, true},
                                         SsbConfig{4, 257, false},
                                         SsbConfig{6, 1024, true})),
    [](const auto& info) { return ConfigName(info); });

INSTANTIATE_TEST_SUITE_P(
    Q11FilterExtremes, SsbCrossEngineTest,
    ::testing::Combine(
        ::testing::Values(Query::kSsbQ11),
        ::testing::Values(SsbConfig{1, 1024, false, Bindings::kNoRow},
                          SsbConfig{4, 1024, false, Bindings::kNoRow},
                          SsbConfig{1, 1024, false, Bindings::kEveryRow},
                          SsbConfig{4, 1024, false, Bindings::kEveryRow})),
    [](const auto& info) { return ConfigName(info); });

TEST(SsbReferenceTest, Q11BothEngines) {
  for (const Bindings b :
       {Bindings::kDefault, Bindings::kNoRow, Bindings::kEveryRow}) {
    const QueryResult expected = ReferenceQ11(TestDb(), FilterFor(b));
    EXPECT_EQ(RunBound(Engine::kTyper, Query::kSsbQ11, {}, b), expected)
        << BindingsName(b);
    EXPECT_EQ(RunBound(Engine::kTectorwise, Query::kSsbQ11, {}, b),
              expected)
        << BindingsName(b);
  }
}

TEST(SsbShapeTest, Q21GroupsByYearAndBrand) {
  const QueryResult r =
      RunQuery(TestDb(), Engine::kTyper, Query::kSsbQ21, {});
  EXPECT_GT(r.rows.size(), 0u);
  // 7 years x 40 brands upper bound.
  EXPECT_LE(r.rows.size(), 280u);
}

TEST(SsbShapeTest, Q31NationPairsWithinAsia) {
  const QueryResult r =
      RunQuery(TestDb(), Engine::kTyper, Query::kSsbQ31, {});
  // 5 Asian nations squared x 6 years upper bound.
  EXPECT_LE(r.rows.size(), 5u * 5u * 6u);
  EXPECT_GT(r.rows.size(), 0u);
}

}  // namespace
}  // namespace vcq
