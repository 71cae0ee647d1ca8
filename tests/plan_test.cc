#include "tectorwise/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/relation.h"
#include "tectorwise/queries.h"

// The declarative plan-builder layer: slot-usage-derived compaction
// registration (unit tests on synthetic plans + a cross-check that the
// derived sets cover the hand-written CompactColumn lists the first
// compaction plans shipped for every studied query), misuse detection, and
// result equality of every builder-described query with the Typer
// reference across thread counts and vector sizes.

namespace vcq::tectorwise {
namespace {

using runtime::Char;
using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::Relation;

Relation MakeFact(size_t n) {
  Relation rel;
  auto a = rel.AddColumn<int32_t>("a", n);
  auto b = rel.AddColumn<int64_t>("b", n);
  auto c = rel.AddColumn<int64_t>("c", n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(i % 100);
    b[i] = static_cast<int64_t>(i);
    c[i] = static_cast<int64_t>(i) * 7;
  }
  return rel;
}

std::vector<Plan::NodeInfo> SelectInfos(const Plan& plan) {
  std::vector<Plan::NodeInfo> selects;
  for (const Plan::NodeInfo& info : plan.Describe()) {
    if (info.kind == NodeKind::kSelect) selects.push_back(info);
  }
  return selects;
}

std::set<std::string> AsSet(const std::vector<std::string>& names) {
  return {names.begin(), names.end()};
}

// ---------------------------------------------------------------------------
// Slot-usage derivation on synthetic plans
// ---------------------------------------------------------------------------

TEST(PlanDerivationTest, FilterOnlyColumnIsNotRegistered) {
  const Relation fact = MakeFact(1000);
  PlanBuilder pb("t");
  auto& scan = pb.Scan(fact, "fact");
  const ColumnRef a = scan.Col<int32_t>("a");
  const ColumnRef b = scan.Col<int64_t>("b");
  scan.Col<int64_t>("c");  // declared but never consumed anywhere
  auto& sel = pb.Select(scan);
  sel.Cmp<int32_t>(a, CmpOp::kLess, 10);
  auto& agg = pb.FixedAgg(sel);
  const ColumnRef total = agg.Sum(b, "total");
  const Plan plan = pb.Build(agg, {total});

  const auto selects = SelectInfos(plan);
  ASSERT_EQ(selects.size(), 1u);
  // `a` is consumed only by the Select itself, `c` by nobody: only `b`
  // (read above the Select by the aggregation) needs densification.
  EXPECT_EQ(AsSet(selects[0].compacts), (std::set<std::string>{"b"}));
}

TEST(PlanDerivationTest, FilterColumnConsumedAboveIsRegistered) {
  const Relation fact = MakeFact(1000);
  PlanBuilder pb("t");
  auto& scan = pb.Scan(fact, "fact");
  const ColumnRef a = scan.Col<int32_t>("a");
  const ColumnRef b = scan.Col<int64_t>("b");
  auto& sel = pb.Select(scan);
  sel.Cmp<int32_t>(a, CmpOp::kLess, 10);
  auto& group = pb.HashGroup(sel);
  const ColumnRef g_a = group.Key<int32_t>(a);  // filter column reused above
  const ColumnRef g_b = group.Sum(b);
  const Plan plan = pb.Build(group, {g_a, g_b});

  const auto selects = SelectInfos(plan);
  ASSERT_EQ(selects.size(), 1u);
  EXPECT_EQ(AsSet(selects[0].compacts), (std::set<std::string>{"a", "b"}));
}

TEST(PlanDerivationTest, MapOutputsAboveSelectAreNotRegistered) {
  const Relation fact = MakeFact(1000);
  PlanBuilder pb("t");
  auto& scan = pb.Scan(fact, "fact");
  const ColumnRef a = scan.Col<int32_t>("a");
  const ColumnRef b = scan.Col<int64_t>("b");
  const ColumnRef c = scan.Col<int64_t>("c");
  auto& sel = pb.Select(scan);
  sel.Cmp<int32_t>(a, CmpOp::kLess, 10);
  auto& map = pb.Map(sel);
  const ColumnRef prod = map.Mul<int64_t>(b, c, "prod");
  auto& agg = pb.FixedAgg(map);
  const ColumnRef total = agg.Sum(prod, "total");
  const Plan plan = pb.Build(agg, {total});

  const auto selects = SelectInfos(plan);
  ASSERT_EQ(selects.size(), 1u);
  // The Map inputs b and c live below the Select and must be registered;
  // its output `prod` is recomputed above the Select and must not be.
  EXPECT_EQ(AsSet(selects[0].compacts), (std::set<std::string>{"b", "c"}));
}

TEST(PlanDerivationTest, SelectAboveGroupRegistersGroupOutputs) {
  const Relation fact = MakeFact(1000);
  PlanBuilder pb("t");
  auto& scan = pb.Scan(fact, "fact");
  const ColumnRef a = scan.Col<int32_t>("a");
  const ColumnRef b = scan.Col<int64_t>("b");
  auto& group = pb.HashGroup(scan);
  const ColumnRef g_a = group.Key<int32_t>(a);
  const ColumnRef g_b = group.Sum(b);
  auto& having = pb.Select(group);
  having.Cmp<int64_t>(g_b, CmpOp::kGreater, 100);
  auto& map = pb.Map(having);
  map.Year(g_a, "y");  // consumes the group key above the having-Select
  auto& agg = pb.FixedAgg(map);
  const ColumnRef total = agg.Sum(g_b, "total");
  const Plan plan = pb.Build(agg, {total});

  const auto selects = SelectInfos(plan);
  ASSERT_EQ(selects.size(), 1u);
  // Scan columns a/b are consumed below the having-Select (by the group),
  // not above it; the group *outputs* are what flows upward. Note sum(b)
  // is registered even though it is also the filter column.
  EXPECT_EQ(AsSet(selects[0].compacts),
            (std::set<std::string>{"a", "sum(b)"}));
}

TEST(PlanDerivationTest, JoinRegistersKeysAndPayloadsOnBothSides) {
  const Relation fact = MakeFact(1000);
  Relation dim;
  {
    auto k = dim.AddColumn<int32_t>("k", 100);
    auto flag = dim.AddColumn<int32_t>("flag", 100);
    auto pay = dim.AddColumn<int64_t>("pay", 100);
    for (size_t i = 0; i < 100; ++i) {
      k[i] = static_cast<int32_t>(i);
      flag[i] = static_cast<int32_t>(i % 2);
      pay[i] = static_cast<int64_t>(i);
    }
  }
  PlanBuilder pb("t");
  auto& dscan = pb.Scan(dim, "dim");
  const ColumnRef k = dscan.Col<int32_t>("k");
  const ColumnRef flag = dscan.Col<int32_t>("flag");
  const ColumnRef pay = dscan.Col<int64_t>("pay");
  auto& dsel = pb.Select(dscan);
  dsel.Cmp<int32_t>(flag, CmpOp::kEq, 1);

  auto& fscan = pb.Scan(fact, "fact");
  const ColumnRef a = fscan.Col<int32_t>("a");
  const ColumnRef b = fscan.Col<int64_t>("b");
  const ColumnRef c = fscan.Col<int64_t>("c");
  auto& fsel = pb.Select(fscan);
  fsel.Cmp<int64_t>(c, CmpOp::kLess, 5000);

  auto& join = pb.HashJoin(dsel, fsel);
  join.Key<int32_t>(a, k);
  const ColumnRef j_pay = join.Build<int64_t>(pay);
  const ColumnRef j_b = join.Probe<int64_t>(b);

  auto& agg = pb.FixedAgg(join);
  const ColumnRef s1 = agg.Sum(j_pay, "s1");
  const ColumnRef s2 = agg.Sum(j_b, "s2");
  const Plan plan = pb.Build(agg, {s1, s2});

  const auto selects = SelectInfos(plan);
  ASSERT_EQ(selects.size(), 2u);
  // Build-side Select: the join consumes key k and payload pay above it;
  // the filter column flag does not flow further.
  EXPECT_EQ(AsSet(selects[0].compacts), (std::set<std::string>{"k", "pay"}));
  // Probe-side Select: probe key a and probe output b; filter column c is
  // not read above the Select.
  EXPECT_EQ(AsSet(selects[1].compacts), (std::set<std::string>{"a", "b"}));
}

TEST(PlanDerivationTest, MisuseAcrossRematerializingOperatorIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Relation fact = MakeFact(1000);
  Relation dim;
  {
    auto k = dim.AddColumn<int32_t>("k", 100);
    for (size_t i = 0; i < 100; ++i) k[i] = static_cast<int32_t>(i);
  }
  EXPECT_DEATH(
      {
        PlanBuilder pb("t");
        auto& dscan = pb.Scan(dim, "dim");
        const ColumnRef k = dscan.Col<int32_t>("k");
        auto& fscan = pb.Scan(fact, "fact");
        const ColumnRef a = fscan.Col<int32_t>("a");
        const ColumnRef b = fscan.Col<int64_t>("b");
        auto& join = pb.HashJoin(dscan, fscan);
        join.Key<int32_t>(a, k);
        auto& agg = pb.FixedAgg(join);
        // `b` was never re-emitted through the join: reading it above the
        // join would silently misalign positions. Build() must reject it.
        const ColumnRef total = agg.Sum(b, "total");
        pb.Build(agg, {total});
      },
      "rematerializing");
}

// ---------------------------------------------------------------------------
// Builder-described execution matches a scalar reference
// ---------------------------------------------------------------------------

TEST(PlanExecutionTest, JoinGroupPipelineMatchesReference) {
  const Relation fact = MakeFact(50'000);
  Relation dim;
  constexpr size_t kDim = 100;
  {
    auto k = dim.AddColumn<int32_t>("k", kDim);
    auto flag = dim.AddColumn<int32_t>("flag", kDim);
    for (size_t i = 0; i < kDim; ++i) {
      k[i] = static_cast<int32_t>(i);
      flag[i] = static_cast<int32_t>(i % 7 == 0);
    }
  }
  // Reference: sum(b) grouped by a over rows with a < 8 (sparse ~8%
  // survivors, exercising the compaction points) joined to flagged dims.
  std::map<int32_t, int64_t> want;
  {
    const auto a = fact.Col<int32_t>("a");
    const auto b = fact.Col<int64_t>("b");
    const auto flag = dim.Col<int32_t>("flag");
    for (size_t i = 0; i < fact.tuple_count(); ++i) {
      if (a[i] < 8 && flag[a[i]] == 1) want[a[i]] += b[i];
    }
  }

  for (const size_t vector_size :
       {size_t{1}, size_t{64}, size_t{1024}, size_t{65536}}) {
    for (const size_t threads : {size_t{1}, size_t{3}}) {
      PlanBuilder pb("t");
      auto& dscan = pb.Scan(dim, "dim");
      const ColumnRef k = dscan.Col<int32_t>("k");
      const ColumnRef flag = dscan.Col<int32_t>("flag");
      auto& dsel = pb.Select(dscan);
      dsel.Cmp<int32_t>(flag, CmpOp::kEq, 1);

      auto& fscan = pb.Scan(fact, "fact");
      const ColumnRef a = fscan.Col<int32_t>("a");
      const ColumnRef b = fscan.Col<int64_t>("b");
      auto& fsel = pb.Select(fscan);
      fsel.Cmp<int32_t>(a, CmpOp::kLess, 8);

      auto& join = pb.HashJoin(dsel, fsel);
      join.Key<int32_t>(a, k);
      const ColumnRef j_a = join.Probe<int32_t>(a);
      const ColumnRef j_b = join.Probe<int64_t>(b);

      auto& group = pb.HashGroup(join);
      const ColumnRef g_a = group.Key<int32_t>(j_a);
      const ColumnRef g_b = group.Sum(j_b);
      const Plan plan = pb.Build(group, {g_a, g_b});

      QueryOptions opt;
      opt.threads = threads;
      opt.vector_size = vector_size;

      std::map<int32_t, int64_t> got;
      plan.Run(opt, [&](const Plan::Batch& batch) {
        for (size_t i = 0; i < batch.size(); ++i) {
          got[batch.Column<int32_t>(g_a)[i]] +=
              batch.Column<int64_t>(g_b)[i];
        }
      });
      EXPECT_EQ(got, want) << "vector_size=" << vector_size
                           << " threads=" << threads;
    }
  }
}

TEST(PlanExecutionTest, GroupEmissionPacksPartitionsIntoFullVectors) {
  // 512 groups spread over HashGroup's 64 hash partitions: emission packs
  // consecutive partitions into full vectors, so all of them arrive in
  // ceil(512 / 1024) = 1 dense batch instead of one batch per partition.
  const size_t n = 100'000;
  Relation fact;
  {
    auto a = fact.AddColumn<int32_t>("a", n);
    auto b = fact.AddColumn<int64_t>("b", n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int32_t>(i % 512);
      b[i] = static_cast<int64_t>(i);
    }
  }
  std::map<int32_t, int64_t> want;
  for (size_t i = 0; i < n; ++i)
    want[static_cast<int32_t>(i % 512)] += static_cast<int64_t>(i);

  PlanBuilder pb("t");
  auto& scan = pb.Scan(fact, "fact");
  const ColumnRef a = scan.Col<int32_t>("a");
  const ColumnRef b = scan.Col<int64_t>("b");
  auto& group = pb.HashGroup(scan);
  const ColumnRef g_a = group.Key<int32_t>(a);
  const ColumnRef g_b = group.Sum(b);
  const Plan plan = pb.Build(group, {g_a, g_b});
  std::map<int32_t, int64_t> got;
  size_t batches = 0;
  plan.Run(QueryOptions{}, [&](const Plan::Batch& batch) {
    ++batches;
    EXPECT_EQ(batch.sel(), nullptr);
    for (size_t i = 0; i < batch.size(); ++i) {
      got[batch.Column<int32_t>(g_a)[i]] += batch.Column<int64_t>(g_b)[i];
    }
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(batches, 1u);
}

TEST(PlanExecutionTest, JoinFanOutCarriesHitsAcrossEmissions) {
  // Every build key has 8 rows, so one probe batch yields up to 8 *
  // vector_size hits. The first half of the probe side matches ~1% of its
  // rows (sparse rounds that wait in the join's output buffers), the second
  // half matches every row (dense rounds appended behind that backlog), so
  // hits straddle the vector_size emission boundary and are carried over
  // to the next batch.
  constexpr int32_t kKeys = 64;
  constexpr size_t kFanOut = 8;
  Relation dim;
  {
    auto k = dim.AddColumn<int32_t>("k", kKeys * kFanOut);
    auto p = dim.AddColumn<int64_t>("p", kKeys * kFanOut);
    for (size_t i = 0; i < kKeys * kFanOut; ++i) {
      k[i] = static_cast<int32_t>(i % kKeys);
      p[i] = static_cast<int64_t>(i) * 1000;
    }
  }
  const size_t n = 60'000;
  Relation fact;
  {
    auto a = fact.AddColumn<int32_t>("a", n);
    auto b = fact.AddColumn<int64_t>("b", n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = i < n / 2 ? static_cast<int32_t>((i * 2654435761u) % 6400)
                       : static_cast<int32_t>(i % kKeys);
      b[i] = static_cast<int64_t>(i);
    }
  }
  std::multimap<int32_t, int64_t> build;
  {
    const auto k = dim.Col<int32_t>("k");
    const auto p = dim.Col<int64_t>("p");
    for (size_t i = 0; i < dim.tuple_count(); ++i) build.emplace(k[i], p[i]);
  }
  std::vector<std::pair<int64_t, int64_t>> want;
  {
    const auto a = fact.Col<int32_t>("a");
    const auto b = fact.Col<int64_t>("b");
    for (size_t i = 0; i < n; ++i) {
      const auto [lo, hi] = build.equal_range(a[i]);
      for (auto it = lo; it != hi; ++it) want.emplace_back(b[i], it->second);
    }
  }
  std::sort(want.begin(), want.end());

  for (const size_t vector_size : {size_t{1}, size_t{64}, size_t{1024}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      PlanBuilder pb("t");
      auto& dscan = pb.Scan(dim, "dim");
      const ColumnRef k = dscan.Col<int32_t>("k");
      const ColumnRef p = dscan.Col<int64_t>("p");
      auto& fscan = pb.Scan(fact, "fact");
      const ColumnRef a = fscan.Col<int32_t>("a");
      const ColumnRef b = fscan.Col<int64_t>("b");
      auto& join = pb.HashJoin(dscan, fscan);
      join.Key<int32_t>(a, k);
      const ColumnRef j_b = join.Probe<int64_t>(b);
      const ColumnRef j_p = join.Build<int64_t>(p);
      const Plan plan = pb.Build(join, {j_b, j_p});

      QueryOptions opt;
      opt.threads = threads;
      opt.vector_size = vector_size;
      std::vector<std::pair<int64_t, int64_t>> got;
      plan.Run(opt, [&](const Plan::Batch& batch) {
        EXPECT_LE(batch.size(), vector_size);
        for (size_t i = 0; i < batch.size(); ++i)
          got.emplace_back(batch.Value<int64_t>(j_b, i),
                           batch.Value<int64_t>(j_p, i));
      });
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "vector_size=" << vector_size
                           << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Derived registrations cover the hand lists PR 1 shipped per query
// ---------------------------------------------------------------------------

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.02));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.03));
  return *db;
}

// Expected registration sets, one per Select in plan order — transcribed
// from the CompactColumn<T> calls PR 1 listed by hand in queries_*.cc.
const std::map<std::string, std::vector<std::set<std::string>>>&
HandLists() {
  static const auto* lists =
      new std::map<std::string, std::vector<std::set<std::string>>>{
          {"Q1",
           {{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
             "l_discount", "l_tax"}}},
          {"Q1-adaptive",
           {{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
             "l_discount", "l_tax"}}},
          {"Q6", {{"l_extendedprice", "l_discount"}}},
          {"Q3",
           {{"c_custkey"},
            {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
            {"l_orderkey", "l_extendedprice", "l_discount"}}},
          {"Q9", {{"p_partkey"}}},
          {"Q18", {{"l_orderkey", "sum(l_quantity)"}}},
          {"SSB-Q1.1",
           {{"d_datekey"},
            {"lo_orderdate", "lo_discount", "lo_extendedprice"}}},
          {"SSB-Q2.1", {{"p_partkey", "p_brand1"}, {"s_suppkey"}}},
          {"SSB-Q3.1",
           {{"c_custkey", "c_nation"},
            {"s_suppkey", "s_nation"},
            {"d_datekey", "d_year"}}},
          {"SSB-Q4.1",
           {{"c_custkey", "c_nation"}, {"s_suppkey"}, {"p_partkey"}}},
      };
  return *lists;
}

TEST(PlanRegistrationTest, DerivedSetsMatchHandListsForAllQueries) {
  for (const auto& [query, expected] : HandLists()) {
    const bool ssb = query.rfind("SSB", 0) == 0;
    const Plan plan = PlanFor(ssb ? SsbDb() : TpchDb(), query);
    std::vector<std::set<std::string>> derived;
    for (const Plan::NodeInfo& info : plan.Describe()) {
      if (info.kind == NodeKind::kSelect) derived.push_back(AsSet(info.compacts));
    }
    EXPECT_EQ(derived, expected) << query;
  }
}

TEST(PlanRegistrationTest, ToStringListsNodesAndRegistrations) {
  const std::string dump = PlanFor(TpchDb(), "Q3").ToString();
  EXPECT_NE(dump.find("plan Q3"), std::string::npos);
  EXPECT_NE(dump.find("hash-join"), std::string::npos);
  EXPECT_NE(dump.find("compacts: c_custkey"), std::string::npos);
  EXPECT_NE(dump.find("result: "), std::string::npos);
}

// ---------------------------------------------------------------------------
// All nine queries: byte-identical to Typer across threads x vector sizes
// ---------------------------------------------------------------------------

QueryOptions MatrixOptions(size_t threads, size_t vector_size) {
  QueryOptions opt;
  opt.threads = threads;
  opt.vector_size = vector_size;
  return opt;
}

constexpr size_t kVectorSizes[] = {1, 1024, 65536};

TEST(PlanEquivalenceTest, AllQueriesMatchTyperAcrossThreadsAndVectorSizes) {
  auto check = [](const Database& db, Query query) {
    const QueryResult expected =
        RunQuery(db, Engine::kTyper, query, MatrixOptions(1, 1024));
    for (const size_t vector_size : kVectorSizes) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const QueryResult got = RunQuery(db, Engine::kTectorwise, query,
                                         MatrixOptions(threads, vector_size));
        EXPECT_EQ(expected.ToString(), got.ToString())
            << QueryName(query) << " vector_size=" << vector_size
            << " threads=" << threads;
      }
    }
  };
  for (const Query query : TpchQueries()) check(TpchDb(), query);
  for (const Query query : SsbQueries()) check(SsbDb(), query);
}

TEST(PlanEquivalenceTest, AdaptiveQ1MatchesTyperAcrossThreadsAndVectorSizes) {
  const QueryResult expected =
      RunQuery(TpchDb(), Engine::kTyper, Query::kQ1, MatrixOptions(1, 1024));
  for (const size_t vector_size : kVectorSizes) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      QueryOptions opt = MatrixOptions(threads, vector_size);
      opt.adaptive = true;
      const QueryResult got =
          RunQuery(TpchDb(), Engine::kTectorwise, Query::kQ1, opt);
      EXPECT_EQ(expected.ToString(), got.ToString())
          << "vector_size=" << vector_size << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace vcq::tectorwise
