#include "api/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/query_catalog.h"
#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/params.h"
#include "runtime/types.h"
#include "tectorwise/plan.h"
#include "tectorwise/queries.h"

// The Session API contract:
//  - prepared re-execution identity: Execute() x3 on one PreparedQuery is
//    byte-identical to the one-shot RunQuery for every query, engine,
//    Tectorwise vector size, and thread count;
//  - concurrent mixed-query execution on shared sessions matches the
//    serial reference (run under TSan in CI);
//  - parameter binding: explicit spec-default bindings reproduce the
//    defaults, non-default bindings agree across engines, and rebinding a
//    warm handle works without re-preparing.

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.01));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.02));
  return *db;
}

const Database& DbFor(Query q) { return IsSsbQuery(q) ? SsbDb() : TpchDb(); }

std::vector<Query> AllQueries() {
  std::vector<Query> all = TpchQueries();
  for (Query q : SsbQueries()) all.push_back(q);
  return all;
}

TEST(SessionTest, PreparedReExecutionMatchesOneShotRunQuery) {
  for (Query q : AllQueries()) {
    const Database& db = DbFor(q);
    Session session(db);
    for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
      for (size_t vector_size : {size_t{1}, size_t{1024}, size_t{65536}}) {
        // The vector size is a Tectorwise knob; skip the redundant Typer
        // cells.
        if (e == Engine::kTyper && vector_size != 1024) continue;
        for (size_t threads : {size_t{1}, size_t{8}}) {
          QueryOptions opt;
          opt.threads = threads;
          opt.vector_size = vector_size;
          const QueryResult expected = RunQuery(db, e, q, opt);
          PreparedQuery prepared = session.Prepare(e, q, opt);
          for (int rep = 0; rep < 3; ++rep) {
            EXPECT_EQ(prepared.Execute(), expected)
                << QueryName(q) << " on " << EngineName(e)
                << " vector_size=" << vector_size << " threads=" << threads
                << " rep=" << rep;
          }
        }
      }
    }
  }
}

TEST(SessionTest, FourConcurrentPreparedQueriesOnOneSession) {
  // The acceptance shape: four prepared queries in flight at once on one
  // shared Session, repeatedly, byte-identical to their serial results.
  Session session(TpchDb());
  QueryOptions opt;
  opt.threads = 4;
  std::vector<PreparedQuery> prepared;
  prepared.push_back(session.Prepare(Engine::kTyper, Query::kQ6, opt));
  prepared.push_back(session.Prepare(Engine::kTectorwise, Query::kQ3, opt));
  prepared.push_back(session.Prepare(Engine::kTyper, Query::kQ18, opt));
  prepared.push_back(session.Prepare(Engine::kTectorwise, Query::kQ1, opt));

  std::vector<QueryResult> expected;
  for (const PreparedQuery& p : prepared) expected.push_back(p.Execute());

  for (int round = 0; round < 3; ++round) {
    std::vector<ExecutionHandle> inflight;
    for (const PreparedQuery& p : prepared)
      inflight.push_back(p.ExecuteAsync());
    for (size_t i = 0; i < inflight.size(); ++i) {
      EXPECT_EQ(inflight[i].Wait(), expected[i]) << "handle " << i;
    }
  }
}

TEST(SessionTest, ConcurrentMixedWorkloadMatchesSerialReference) {
  // All 9 queries x both engines across two sessions sharing the global
  // pool, driven from several client threads at once.
  Session tpch(TpchDb());
  Session ssb(SsbDb());
  QueryOptions opt;
  opt.threads = 2;
  struct Cell {
    PreparedQuery prepared;
    QueryResult expected;
  };
  std::vector<Cell> cells;
  for (Query q : AllQueries()) {
    for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
      Session& session = IsSsbQuery(q) ? ssb : tpch;
      PreparedQuery p = session.Prepare(e, q, opt);
      QueryResult expected = p.Execute();
      cells.push_back(Cell{std::move(p), std::move(expected)});
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = t; i < cells.size(); i += 2) {  // overlapping ranges
        const Cell& cell = cells[i % cells.size()];
        if (!(cell.prepared.Execute() == cell.expected)) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SessionTest, ExplicitDefaultBindingsReproduceSpecConstants) {
  Session session(TpchDb());
  PreparedQuery q6 =
      session.Prepare(Engine::kTectorwise, Query::kQ6, QueryOptions{});
  const QueryResult by_default = q6.Execute();
  q6.Set("shipdate_lo", "1994-01-01")
      .Set("shipdate_hi", "1994-12-31")
      .Set("discount_lo", int64_t{5})
      .Set("discount_hi", int64_t{7})
      .Set("quantity_max", int64_t{2400});
  EXPECT_EQ(q6.Execute(), by_default);
  EXPECT_EQ(by_default, RunQuery(TpchDb(), Engine::kTectorwise, Query::kQ6,
                                 QueryOptions{}));
}

/// Non-default bindings for every query — each valid for the generated
/// data's vocabulary, each changing at least one predicate.
QueryParams NonDefaultBindings(Query q) {
  QueryParams p;
  switch (q) {
    case Query::kQ1: p.SetDate("shipdate", "1995-06-30"); break;
    case Query::kQ6:
      p.SetDate("shipdate_lo", "1995-01-01")
          .SetDate("shipdate_hi", "1995-12-31")
          .SetInt("discount_lo", 4)
          .SetInt("discount_hi", 6)
          .SetInt("quantity_max", 3000);
      break;
    case Query::kQ3:
      p.SetString("segment", "MACHINERY").SetDate("date", "1995-06-01");
      break;
    case Query::kQ9: p.SetString("color", "red"); break;
    case Query::kQ18: p.SetInt("quantity_min", 25000); break;
    case Query::kSsbQ11:
      p.SetInt("year", 1994)
          .SetInt("discount_lo", 2)
          .SetInt("discount_hi", 4)
          .SetInt("quantity_max", 30);
      break;
    case Query::kSsbQ21:
      p.SetString("category", "MFGR#13").SetString("region", "ASIA");
      break;
    case Query::kSsbQ31:
      p.SetString("region", "AMERICA").SetInt("year_lo", 1993).SetInt(
          "year_hi", 1996);
      break;
    case Query::kSsbQ41:
      p.SetString("region", "ASIA")
          .SetString("mfgr_a", "MFGR#2")
          .SetString("mfgr_b", "MFGR#3");
      break;
  }
  return p;
}

TEST(SessionTest, NonDefaultBindingsAgreeAcrossEngines) {
  for (Query q : AllQueries()) {
    const Database& db = DbFor(q);
    Session session(db);
    QueryOptions opt;
    opt.threads = 2;
    const QueryParams bindings = NonDefaultBindings(q);

    PreparedQuery typer = session.Prepare(Engine::kTyper, q, opt);
    PreparedQuery tw = session.Prepare(Engine::kTectorwise, q, opt);
    const QueryResult typer_result = typer.Execute(bindings);
    const QueryResult tw_result = tw.Execute(bindings);
    EXPECT_EQ(typer_result, tw_result) << QueryName(q);

    // Rebinding a warm handle: Set() then Execute() equals the explicit
    // overload, and ResetParams() restores the spec defaults — all without
    // re-preparing the plan.
    const QueryResult default_result = tw.Execute();
    for (const ParamSpec& spec : tw.info().params) {
      switch (spec.type) {
        case runtime::ParamType::kInt:
          tw.Set(spec.name, bindings.Int(spec.name));
          break;
        case runtime::ParamType::kDate:
          tw.Set(spec.name,
                 runtime::DateToString(bindings.Date(spec.name)));
          break;
        case runtime::ParamType::kString:
          tw.Set(spec.name, bindings.Str(spec.name));
          break;
      }
    }
    EXPECT_EQ(tw.Execute(), tw_result) << QueryName(q);
    tw.ResetParams();
    EXPECT_EQ(tw.Execute(), default_result) << QueryName(q);
  }
}

TEST(SessionTest, PartialExplicitBindingsLayerOverDefaults) {
  Session session(TpchDb());
  PreparedQuery q6 = session.Prepare(Engine::kTyper, Query::kQ6);
  // Only the discount band changes; dates/quantity stay at spec defaults.
  QueryParams partial;
  partial.SetInt("discount_lo", 6).SetInt("discount_hi", 7);
  const QueryResult via_overload = q6.Execute(partial);
  q6.Set("discount_lo", int64_t{6});
  const QueryResult via_set = q6.Execute();
  EXPECT_EQ(via_overload, via_set);
}

TEST(SessionTest, CatalogDeclaresEveryParameterTheEnginesRead) {
  // DefaultParams must fully cover each engine's parameter reads: running
  // with exactly the catalog defaults (what RunQuery does) must succeed
  // for every query and engine, including the reference SQL texts Volcano
  // runs.
  for (Query q : AllQueries()) {
    const Database& db = DbFor(q);
    for (Engine e : {Engine::kTyper, Engine::kTectorwise, Engine::kVolcano}) {
      EXPECT_FALSE(RunQuery(db, e, q, QueryOptions{}).rows.empty())
          << QueryName(q) << " on " << EngineName(e);
    }
  }
}

TEST(SessionTest, EveryCatalogPlanPassesTheParamCrossCheck) {
  // Prepare runs ValidatePlanParams on every Tectorwise plan: the shipped
  // catalog and query files must agree (this is the prepare-time guard
  // against query/catalog drift).
  for (Query q : AllQueries()) {
    const tectorwise::Plan plan =
        tectorwise::PlanFor(DbFor(q), QueryName(q));
    EXPECT_FALSE(plan.param_uses().empty()) << QueryName(q);
    ValidatePlanParams(plan, CatalogEntry(q));  // must not check-fail
  }
}

TEST(SessionDeathTest, PlanParamDriftFailsAtPrepareTime) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Database& db = TpchDb();

  // A plan reading a parameter the catalog never declared.
  const auto undeclared = [&db] {
    tectorwise::PlanBuilder pb("drift-name");
    auto& scan = pb.Scan(db["lineitem"], "lineitem");
    const auto qty = scan.Col<int64_t>("l_quantity");
    auto& sel = pb.Select(scan);
    sel.CmpParam<int64_t>(qty, tectorwise::CmpOp::kLess, "bogus_param");
    auto& agg = pb.FixedAgg(sel);
    const auto total = agg.Sum(qty, "total");
    return pb.Build(agg, {total});
  };
  EXPECT_DEATH(ValidatePlanParams(undeclared(), CatalogEntry(Query::kQ6)),
               "does not declare");

  // A plan reading a declared kString parameter numerically (Q3 declares
  // "segment" as kString) — the garbage-producing drift the cross-check
  // exists for.
  const auto mismatched = [&db] {
    tectorwise::PlanBuilder pb("drift-type");
    auto& scan = pb.Scan(db["lineitem"], "lineitem");
    const auto qty = scan.Col<int64_t>("l_quantity");
    auto& sel = pb.Select(scan);
    sel.CmpParam<int64_t>(qty, tectorwise::CmpOp::kLess, "segment");
    auto& agg = pb.FixedAgg(sel);
    const auto total = agg.Sum(qty, "total");
    return pb.Build(agg, {total});
  };
  EXPECT_DEATH(ValidatePlanParams(mismatched(), CatalogEntry(Query::kQ3)),
               "disagrees with the catalog");
}

TEST(SessionDeathTest, MisuseIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Session session(TpchDb());
  PreparedQuery q6 = session.Prepare(Engine::kTyper, Query::kQ6);
  EXPECT_DEATH(q6.Set("no_such_param", int64_t{1}), "unknown parameter");
  EXPECT_DEATH(q6.Set("shipdate_lo", int64_t{3}), "not an integer");
  EXPECT_DEATH(q6.Set("discount_lo", "0.04"), "is an integer");
  // The explicit-bindings overload applies the same misspelling guard —
  // a typo must not silently fall back to the default binding.
  QueryParams misspelled;
  misspelled.SetInt("disc_lo", 4);
  EXPECT_DEATH(q6.Execute(misspelled), "unknown parameter");

  // Volcano honors explicit bindings (it used to insist on the catalog
  // defaults); a re-bound run must agree with Tectorwise under the same
  // binding.
  PreparedQuery volcano = session.Prepare(Engine::kVolcano, Query::kQ6);
  volcano.Set("discount_lo", int64_t{4});
  PreparedQuery tw = session.Prepare(Engine::kTectorwise, Query::kQ6);
  tw.Set("discount_lo", int64_t{4});
  EXPECT_EQ(volcano.Execute(), tw.Execute());
}

TEST(SessionTest, ReboundSsbVolcanoMatchesTectorwise) {
  // Volcano runs SSB through the catalog too (its plans are lowered from
  // the reference SQL), and honors rebinding like the other engines.
  Session session(SsbDb());
  PreparedQuery volcano = session.Prepare(Engine::kVolcano, Query::kSsbQ31);
  PreparedQuery tw = session.Prepare(Engine::kTectorwise, Query::kSsbQ31);
  for (PreparedQuery* q : {&volcano, &tw}) {
    q->Set("region", "EUROPE").Set("year_lo", int64_t{1993});
  }
  const QueryResult rebound = tw.Execute();
  ASSERT_TRUE(rebound.ok());
  ASSERT_FALSE(rebound.rows.empty());
  EXPECT_NE(rebound, session.Prepare(Engine::kTectorwise, Query::kSsbQ31)
                         .Execute());
  EXPECT_EQ(volcano.Execute(), rebound);
}

TEST(SessionTest, MeasuredPeakReplacesEstimateAfterFirstRun) {
  Session session(TpchDb());
  QueryOptions opt;
  opt.threads = 1;
  PreparedQuery q = session.Prepare(Engine::kTectorwise, Query::kQ3, opt);
  EXPECT_EQ(q.measured_peak_bytes(), 0u);
  ASSERT_TRUE(q.Execute().ok());
  const size_t peak = q.measured_peak_bytes();
  EXPECT_GT(peak, 0u);
  // Stable across re-executions of the same bindings.
  ASSERT_TRUE(q.Execute().ok());
  EXPECT_EQ(q.measured_peak_bytes(), peak);
}

}  // namespace
}  // namespace vcq
