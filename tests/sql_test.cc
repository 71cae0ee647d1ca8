#include "sql/sql.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/query_catalog.h"
#include "api/session.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "sql/catalog.h"
#include "sql/fuzz.h"
#include "sql/reference_queries.h"

// The SQL front door's own contract (the cross-engine byte-identity of the
// nine workload queries lives in sql_differential_test.cc):
//  - malformed SQL fails at COMPILE time with a 1-based line:column
//    position, and Session::PrepareSql turns that into a loud prepare-time
//    death — an Execute can never see a compile error;
//  - the binder's semantic guards (unknown names, type mixing, unsupported
//    shapes) all carry positions;
//  - compiled feature queries (expressions, BETWEEN/IN/LIKE, EXTRACT,
//    GROUP BY/HAVING, AVG, parameters) agree byte-for-byte between the
//    Tectorwise lowering and the Volcano interpreter;
//  - the optimizer's pushdown + join ordering strictly reduce plan cost on
//    join queries with an adversarial FROM order; its key-aware join
//    estimates track measured join sizes, and declared keys (verified by
//    the catalog) drive the group-by pushdown that gives Q18 the
//    hand-built plan's shape;
//  - EXPLAIN exposes all four stages.

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

std::shared_ptr<const sql::Catalog> TpchCatalog() {
  static const std::shared_ptr<const sql::Catalog>* cat =
      new std::shared_ptr<const sql::Catalog>(sql::MakeCatalog(TpchDb()));
  return *cat;
}

sql::CompileResult CompileTpch(std::string_view text,
                               const sql::OptimizerOptions& opt = {}) {
  return sql::Compile(TpchCatalog(), text, opt);
}

std::shared_ptr<const sql::Catalog> SsbCatalog() {
  static const Database* db = new Database(datagen::GenerateSsb(0.02));
  static const std::shared_ptr<const sql::Catalog>* cat =
      new std::shared_ptr<const sql::Catalog>(sql::MakeCatalog(*db));
  return *cat;
}

/// Compiles one of the nine reference texts against its workload's data.
std::shared_ptr<const sql::CompiledQuery> CompileReference(const char* name) {
  const QueryInfo* info = FindQuery(name);
  EXPECT_NE(info, nullptr) << name;
  if (info == nullptr) return nullptr;
  sql::CompileResult c = sql::Compile(
      info->workload == Workload::kTpch ? TpchCatalog() : SsbCatalog(),
      sql::SqlTextFor(name));
  EXPECT_TRUE(c.ok()) << name;
  return c.query;
}

/// Tables scanned row for row under `t`, in tree order (pre-aggregated
/// leaves are left out).
std::vector<std::string> RawScansUnder(const sql::BoundQuery& q,
                                       const sql::JoinTree& t) {
  if (t.IsLeaf()) {
    if (!t.group_by.empty()) return {};
    return {q.Table(static_cast<uint32_t>(t.table)).name};
  }
  std::vector<std::string> out = RawScansUnder(q, *t.build);
  for (std::string& name : RawScansUnder(q, *t.probe))
    out.push_back(std::move(name));
  return out;
}

/// Join nodes in the Volcano lowering's reporting order (build subtree,
/// probe subtree, then the join itself).
void JoinsPostOrder(const sql::JoinTree& t,
                    std::vector<const sql::JoinTree*>* out) {
  if (t.IsLeaf()) return;
  JoinsPostOrder(*t.build, out);
  JoinsPostOrder(*t.probe, out);
  out->push_back(&t);
}

/// Compiles `text` and runs it on both backends, asserting byte identity;
/// returns the Tectorwise result for further checks.
QueryResult BothEngines(std::string_view text, const QueryParams& params = {},
                        size_t threads = 1) {
  sql::CompileResult c = CompileTpch(text);
  EXPECT_TRUE(c.ok()) << (c.error ? c.error->Format() : "") << "\n" << text;
  if (!c.ok()) return QueryResult::Failed(runtime::ExecStatus::kInternalError);
  QueryOptions opt;
  opt.threads = threads;
  const QueryResult tw = c.query->LowerTectorwise().Run(opt, params);
  QueryOptions vopt;
  vopt.threads = 1;
  const QueryResult volcano = c.query->RunVolcano(vopt, params);
  EXPECT_EQ(tw, volcano) << text << "\n-- tectorwise --\n"
                         << tw.ToString(10) << "-- volcano --\n"
                         << volcano.ToString(10);
  return tw;
}

// ---------------------------------------------------------------------------
// Compile errors: positioned, at compile time only
// ---------------------------------------------------------------------------

struct ErrorCase {
  const char* sql;
  const char* message_part;  // substring of the diagnostic
};

TEST(SqlCompileErrorTest, PositionedDiagnostics) {
  const ErrorCase cases[] = {
      {"SELEC n_name FROM nation", "expected select"},
      {"SELECT n_name FROM no_such_table", "unknown table"},
      {"SELECT no_such_col FROM nation", "unknown column"},
      {"SELECT n_name FROM nation WHERE n_name < 3", "string"},
      {"SELECT n_name FROM nation WHERE n_nationkey = 'x'", "cannot compare"},
      {"SELECT n_name FROM nation, region", "not connected"},
      {"SELECT n_name FROM nation, nation", "duplicate table"},
      {"SELECT SUM(n_nationkey) FROM nation HAVING SUM(n_nationkey) > 1",
       "HAVING requires GROUP BY"},
      {"SELECT n_name FROM nation ORDER BY n_regionkey",
       "not in the select list"},
      {"SELECT n_name, COUNT(*) FROM nation", "requires GROUP BY"},
      {"SELECT n_name FROM nation WHERE n_regionkey IN (1, 2, 3)",
       "more than two"},
      {"SELECT n_name FROM nation WHERE n_regionkey IN (1, $p)",
       "all constants or all parameters"},
      {"SELECT n_name FROM nation WHERE n_name = "
       "'an impossibly long literal that cannot fit a char(25) column'",
       "wider than column"},
      {"SELECT n_regionkey FROM nation GROUP BY n_regionkey, n_regionkey",
       "duplicate group key"},
      {"SELECT SUM(1) FROM nation", "must reference a table column"},
      {"SELECT AVG(n_name) FROM nation", "numeric argument"},
      {"SELECT n_name FROM nation WHERE n_name LIKE 'a_b'", "LIKE"},
      {"SELECT n_name FROM nation LIMIT", "LIMIT"},
  };
  for (const ErrorCase& c : cases) {
    sql::CompileResult r = CompileTpch(c.sql);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_NE(r.error->message.find(c.message_part), std::string::npos)
        << c.sql << " -> " << r.error->Format();
    EXPECT_GE(r.error->line, 1u) << c.sql;
    EXPECT_GE(r.error->col, 1u) << c.sql;
  }
}

TEST(SqlCompileErrorTest, PositionPointsAtOffendingToken) {
  // Line 2, the unknown column after the two leading spaces.
  sql::CompileResult r = CompileTpch("SELECT n_name FROM nation\nWHERE  nope = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 2u);
  EXPECT_EQ(r.error->col, 8u);
  EXPECT_NE(r.error->Format().find("2:8"), std::string::npos);
}

TEST(SqlSessionDeathTest, PrepareSqlDiesOnMalformedSql) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Session session(TpchDb());
  EXPECT_DEATH(session.PrepareSql("SELECT FROM nowhere"), "SQL error at");
  EXPECT_DEATH(session.PrepareSql("SELECT COUNT(*) FROM nation",
                                  Engine::kTyper),
               "Typer");
  EXPECT_DEATH(session.ExplainSql("SELECT nope FROM nation"), "SQL error at");
}

TEST(SqlSessionDeathTest, SqlHandleGuards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Session session(TpchDb());
  PreparedQuery q = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k");
  EXPECT_DEATH(q.query(), "no catalog Query id");
  EXPECT_DEATH(q.Set("unknown", int64_t{1}), "unknown parameter");
  EXPECT_DEATH(q.Set("k", "not an int"), "integer");
}

// ---------------------------------------------------------------------------
// Correctness on small relations (hand-computable references)
// ---------------------------------------------------------------------------

TEST(SqlCorrectnessTest, CountAndSumAgainstStorage) {
  const auto& nation = TpchDb()["nation"];
  const auto keys = nation.Col<int32_t>("n_nationkey");
  int64_t sum = 0;
  for (size_t i = 0; i < nation.tuple_count(); ++i) sum += keys[i];
  const QueryResult r = BothEngines(
      "SELECT COUNT(*) AS n, SUM(n_nationkey) AS s FROM nation");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], std::to_string(nation.tuple_count()));
  EXPECT_EQ(r.rows[0][1], std::to_string(sum));
}

TEST(SqlCorrectnessTest, GroupByWithOrderAndLimit) {
  const QueryResult r = BothEngines(
      "SELECT n_regionkey, COUNT(*) AS members FROM nation "
      "GROUP BY n_regionkey ORDER BY n_regionkey LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0], "0");
  EXPECT_EQ(r.rows[1][0], "1");
  EXPECT_EQ(r.rows[2][0], "2");
  ASSERT_EQ(r.column_names,
            (std::vector<std::string>{"n_regionkey", "members"}));
}

TEST(SqlCorrectnessTest, JoinProjection) {
  // Every nation paired with its region name; row count must equal the
  // nation table's cardinality.
  const QueryResult r = BothEngines(
      "SELECT n_name, r_name FROM nation, region "
      "WHERE n_regionkey = r_regionkey");
  EXPECT_EQ(r.rows.size(), TpchDb()["nation"].tuple_count());
}

// ---------------------------------------------------------------------------
// Feature queries: Tectorwise == Volcano (1 and 4 threads)
// ---------------------------------------------------------------------------

TEST(SqlDifferentialFeatureTest, FeatureQueriesAgreeAcrossEngines) {
  const char* queries[] = {
      // Expressions + multi-aggregate + AVG.
      "SELECT l_returnflag, SUM(l_extendedprice * (1.00 - l_discount)) AS v,"
      " AVG(l_quantity) AS aq, MIN(l_discount) AS lo, MAX(l_tax) AS hi,"
      " COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"
      " ORDER BY l_returnflag",
      // BETWEEN + date comparison + ungrouped aggregates.
      "SELECT SUM(l_extendedprice) AS s, COUNT(*) AS n FROM lineitem"
      " WHERE l_discount BETWEEN 0.04 AND 0.06"
      " AND l_shipdate < DATE '1996-01-01'",
      // LIKE prefix (range rewrite) and substring (Contains).
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE 'a%'",
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE '%green%'",
      // IN on strings, OR-pair on numerics.
      "SELECT COUNT(*) AS n FROM nation WHERE n_name IN ('FRANCE','KENYA')",
      "SELECT COUNT(*) AS n FROM nation"
      " WHERE n_regionkey = 1 OR n_regionkey = 3",
      // EXTRACT(YEAR) as group key and output.
      "SELECT EXTRACT(YEAR FROM o_orderdate) AS y, COUNT(*) AS n"
      " FROM orders GROUP BY EXTRACT(YEAR FROM o_orderdate) ORDER BY y",
      // HAVING above a join.
      "SELECT o_orderkey, SUM(l_quantity) AS q FROM orders, lineitem"
      " WHERE o_orderkey = l_orderkey GROUP BY o_orderkey"
      " HAVING SUM(l_quantity) > 200.00 ORDER BY q DESC, o_orderkey LIMIT 5",
      // MIN/MAX over dates.
      "SELECT MIN(l_shipdate) AS lo, MAX(l_shipdate) AS hi FROM lineitem",
      // Arithmetic between columns of different scales.
      "SELECT SUM(l_extendedprice - l_quantity) AS d FROM lineitem"
      " WHERE l_linenumber = 1",
  };
  for (const char* q : queries) {
    BothEngines(q, {}, 1);
    BothEngines(q, {}, 4);
  }
}

TEST(SqlParamTest, ParametersMatchInlinedLiterals) {
  const char* with_params =
      "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem"
      " WHERE l_shipdate >= $lo AND l_shipdate < $hi"
      " AND l_discount BETWEEN $dlo AND $dhi AND l_returnflag = $flag";
  const char* inlined =
      "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem"
      " WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE "
      "'1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07"
      " AND l_returnflag = 'R'";
  QueryParams params;
  params.SetDate("lo", "1994-01-01");
  params.SetDate("hi", "1995-01-01");
  params.SetInt("dlo", 5);
  params.SetInt("dhi", 7);
  params.SetString("flag", "R");
  const QueryResult a = BothEngines(with_params, params);
  const QueryResult b = BothEngines(inlined);
  EXPECT_EQ(a.rows, b.rows);
}

TEST(SqlParamTest, SessionBindingRoundTrip) {
  Session session(TpchDb());
  PreparedQuery q = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k");
  EXPECT_TRUE(q.is_sql());
  EXPECT_EQ(q.info().name, "SQL");
  ASSERT_EQ(q.info().params.size(), 1u);
  EXPECT_EQ(q.info().params[0].name, "k");
  q.Set("k", int64_t{5});
  const QueryResult r5 = q.Execute();
  ASSERT_TRUE(r5.ok());
  ASSERT_EQ(r5.rows.size(), 1u);
  EXPECT_EQ(r5.rows[0][0], "5");
  q.Set("k", int64_t{10});
  EXPECT_EQ(q.Execute().rows[0][0], "10");
  // Volcano engine through the same Session surface, same bindings.
  PreparedQuery v = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k",
      Engine::kVolcano);
  v.Set("k", int64_t{10});
  EXPECT_EQ(v.Execute(), q.Execute());
}

TEST(SqlParamTest, ParameterizedLikeUsesRawSubstring) {
  QueryParams params;
  params.SetString("needle", "green");
  const QueryResult a = BothEngines(
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE $needle", params);
  const QueryResult b =
      BothEngines("SELECT COUNT(*) AS n FROM part WHERE p_name LIKE "
                  "'%green%'");
  EXPECT_EQ(a.rows, b.rows);
}

// ---------------------------------------------------------------------------
// EXPLAIN and optimizer behavior
// ---------------------------------------------------------------------------

TEST(SqlExplainTest, AllFourStagesPresent) {
  Session session(TpchDb());
  const std::string out = session.ExplainSql(
      "SELECT n_name, COUNT(*) AS n FROM nation, region "
      "WHERE n_regionkey = r_regionkey AND r_name = 'ASIA' "
      "GROUP BY n_name");
  EXPECT_NE(out.find("-- ast --"), std::string::npos);
  EXPECT_NE(out.find("-- logical --"), std::string::npos);
  EXPECT_NE(out.find("-- optimized --"), std::string::npos);
  EXPECT_NE(out.find("-- physical (tectorwise) --"), std::string::npos);
}

TEST(SqlOptimizerTest, JoinOrderingAndPushdownReduceCost) {
  // Adversarial FROM order: the fact table first, the selective dimension
  // filter last. The full optimizer must beat the FROM-order baseline.
  const char* q3ish =
      "SELECT o_orderkey, SUM(l_extendedprice) AS v"
      " FROM lineitem, orders, customer"
      " WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
      " AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15'"
      " GROUP BY o_orderkey";
  sql::OptimizerOptions off;
  off.pushdown = false;
  off.join_order = false;
  sql::CompileResult baseline = CompileTpch(q3ish, off);
  sql::CompileResult full = CompileTpch(q3ish);
  ASSERT_TRUE(baseline.ok() && full.ok());
  EXPECT_LT(full.query->cost(), baseline.query->cost());

  // The measured interpreter confirms the estimate: fewer tuples flow
  // through the joins under the optimized order.
  QueryOptions opt;
  opt.threads = 1;
  sql::VolcanoStats base_stats;
  sql::VolcanoStats full_stats;
  const QueryResult a = baseline.query->RunVolcano(opt, {}, &base_stats);
  const QueryResult b = full.query->RunVolcano(opt, {}, &full_stats);
  EXPECT_EQ(a, b);  // plans differ, results must not
  EXPECT_LT(full_stats.intermediate_tuples, base_stats.intermediate_tuples);
}

TEST(SqlOptimizerTest, OptimizerConfigsAgreeOnResults) {
  const char* q =
      "SELECT n_name, COUNT(*) AS n FROM nation, supplier"
      " WHERE s_nationkey = n_nationkey AND s_suppkey < 50.00 + 50.00"
      " GROUP BY n_name ORDER BY n_name";
  QueryResult reference;
  bool first = true;
  for (const bool fold : {false, true}) {
    for (const bool pushdown : {false, true}) {
      for (const bool join_order : {false, true}) {
        sql::OptimizerOptions o;
        o.fold_constants = fold;
        o.pushdown = pushdown;
        o.join_order = join_order;
        sql::CompileResult c = CompileTpch(q, o);
        ASSERT_TRUE(c.ok());
        QueryOptions opt;
        opt.threads = 2;
        const QueryResult tw = c.query->LowerTectorwise().Run(opt, {});
        const QueryResult volcano = c.query->RunVolcano(opt, {});
        EXPECT_EQ(tw, volcano);
        if (first) {
          reference = tw;
          first = false;
        } else {
          EXPECT_EQ(tw, reference);
        }
      }
    }
  }
}

TEST(SqlOptimizerTest, KeyJoinEstimatesTrackMeasuredJoins) {
  // Every join's estimate is within q-error 10 of the rows the Volcano
  // interpreter measures for it, under the spec-default bindings.
  for (const char* name : {"Q9", "Q3"}) {
    auto q = CompileReference(name);
    ASSERT_NE(q, nullptr);
    std::vector<const sql::JoinTree*> joins;
    JoinsPostOrder(*q->plan().root, &joins);
    QueryOptions opt;
    opt.threads = 1;
    sql::VolcanoStats stats;
    q->RunVolcano(opt, DefaultParams(FindQuery(name)->query), &stats);
    ASSERT_EQ(stats.joins.size(), joins.size()) << name;
    for (size_t i = 0; i < joins.size(); ++i) {
      ASSERT_TRUE(joins[i]->filters.empty()) << name;
      const double est = joins[i]->est_rows;
      const double actual =
          std::max<double>(1, static_cast<double>(stats.joins[i].tuples));
      EXPECT_LE(std::max(est / actual, actual / est), 10.0)
          << name << " " << stats.joins[i].label << ": est " << est
          << ", actual " << actual << "\n"
          << q->ExplainOptimized();
    }
  }
}

TEST(SqlOptimizerTest, LineitemRowsNeverOnABuildSide) {
  // As in the hand-built plans, lineitem rows only ever probe: no hash
  // table holds them or anything joined to them. (Q18 builds on lineitem
  // grouped by l_orderkey after HAVING — one row per qualifying order.)
  for (const char* name : {"Q9", "Q18"}) {
    auto q = CompileReference(name);
    ASSERT_NE(q, nullptr);
    std::vector<const sql::JoinTree*> joins;
    JoinsPostOrder(*q->plan().root, &joins);
    ASSERT_FALSE(joins.empty());
    for (const sql::JoinTree* j : joins) {
      const auto build = RawScansUnder(q->plan().query, *j->build);
      EXPECT_EQ(std::count(build.begin(), build.end(), "lineitem"), 0)
          << name << "\n" << q->ExplainOptimized();
    }
  }
}

TEST(SqlOptimizerTest, Q18PreAggregatesLineitemBelowTheOrdersJoin) {
  auto q = CompileReference("Q18");
  ASSERT_NE(q, nullptr);
  const sql::PhysicalPlan& plan = q->plan();
  const sql::JoinTree* leaf = plan.PreAggregated();
  ASSERT_NE(leaf, nullptr) << q->ExplainOptimized();
  const sql::BoundQuery& bq = plan.query;
  EXPECT_EQ(bq.Table(static_cast<uint32_t>(leaf->table)).name, "lineitem");
  ASSERT_EQ(leaf->group_by.size(), 1u);
  EXPECT_EQ(bq.Column(leaf->group_by[0]).name, "l_orderkey");
  // HAVING runs at the leaf, so below the join that meets orders: that
  // join's other child is the orders scan.
  ASSERT_FALSE(bq.having.empty());
  std::vector<const sql::JoinTree*> joins;
  JoinsPostOrder(*plan.root, &joins);
  const sql::JoinTree* parent = nullptr;
  for (const sql::JoinTree* j : joins)
    if (j->build.get() == leaf || j->probe.get() == leaf) parent = j;
  ASSERT_NE(parent, nullptr);
  const sql::JoinTree& other =
      parent->build.get() == leaf ? *parent->probe : *parent->build;
  EXPECT_EQ(RawScansUnder(bq, other), std::vector<std::string>{"orders"});
  EXPECT_NE(q->ExplainOptimized().find("having"), std::string::npos);
}

TEST(SqlOptimizerTest, ParameterBetweenIsOneRange) {
  // d_year BETWEEN $year_lo AND $year_hi is one 0.3 range, not two
  // independent halves (0.09): date keeps most rows, so SSB-Q3.1 probes
  // the region-filtered customer and supplier first and date last.
  auto q = CompileReference("SSB-Q3.1");
  ASSERT_NE(q, nullptr);
  const sql::BoundQuery& bq = q->plan().query;
  std::vector<const sql::JoinTree*> joins;
  JoinsPostOrder(*q->plan().root, &joins);
  ASSERT_EQ(joins.size(), 3u);
  EXPECT_EQ(RawScansUnder(bq, *joins[0]->build),
            std::vector<std::string>{"customer"})
      << q->ExplainOptimized();
  EXPECT_EQ(RawScansUnder(bq, *joins[1]->build),
            std::vector<std::string>{"supplier"});
  EXPECT_EQ(RawScansUnder(bq, *joins[2]->build),
            std::vector<std::string>{"date"});
  const sql::JoinTree& date = *joins[2]->build;
  ASSERT_EQ(date.filters.size(), 2u);
  const size_t rows = bq.Table(static_cast<uint32_t>(date.table)).tuple_count;
  EXPECT_DOUBLE_EQ(date.est_rows, 0.3 * static_cast<double>(rows));
}

// ---------------------------------------------------------------------------
// Catalog keys
// ---------------------------------------------------------------------------

/// Table → its recorded keys, each as "col" or "col1,col2".
std::map<std::string, std::vector<std::string>> KeysOf(
    const sql::Catalog& catalog) {
  std::map<std::string, std::vector<std::string>> out;
  for (const sql::TableDef& t : catalog.tables()) {
    auto& keys = out[t.name];
    for (const auto& key : t.keys) {
      std::string k;
      for (const size_t c : key)
        k += (k.empty() ? "" : ",") + t.columns[c].name;
      keys.push_back(k);
    }
  }
  return out;
}

TEST(SqlCatalogTest, DeclaredKeysVerifyOnGeneratedData) {
  using Keys = std::map<std::string, std::vector<std::string>>;
  EXPECT_EQ(KeysOf(*TpchCatalog()),
            (Keys{{"customer", {"c_custkey"}},
                  {"lineitem", {}},
                  {"nation", {"n_nationkey"}},
                  {"orders", {"o_orderkey"}},
                  {"part", {"p_partkey"}},
                  {"partsupp", {"ps_partkey,ps_suppkey"}},
                  {"region", {"r_regionkey"}},
                  {"supplier", {"s_suppkey"}}}));
  EXPECT_EQ(KeysOf(*SsbCatalog()),
            (Keys{{"customer", {"c_custkey"}},
                  {"date", {"d_datekey"}},
                  {"lineorder", {}},
                  {"part", {"p_partkey"}},
                  {"supplier", {"s_suppkey"}}}));
}

/// lineitem(l_orderkey, l_quantity) + orders(o_orderkey, o_totalprice)
/// with four orders; `dup_key` gives two of them the same o_orderkey.
Database TinyOrders(bool dup_key) {
  Database db;
  runtime::Relation& orders = db.Add("orders");
  auto okey = orders.AddColumn<int32_t>("o_orderkey", 4);
  auto total = orders.AddColumn<int64_t>("o_totalprice", 4);
  for (int32_t i = 0; i < 4; ++i) {
    okey[i] = dup_key && i == 3 ? 3 : i + 1;
    total[i] = 1000 * (i + 1);
  }
  runtime::Relation& lineitem = db.Add("lineitem");
  auto lkey = lineitem.AddColumn<int32_t>("l_orderkey", 8);
  auto qty = lineitem.AddColumn<int64_t>("l_quantity", 8);
  for (int32_t i = 0; i < 8; ++i) {
    lkey[i] = i % 4 + 1;
    qty[i] = 100 * (i + 1);
  }
  return db;
}

TEST(SqlCatalogTest, DuplicatedKeyIsNotRecordedAndBlocksPushdown) {
  const char* text =
      "SELECT o_orderkey, o_totalprice, SUM(l_quantity) AS qty"
      " FROM lineitem, orders WHERE l_orderkey = o_orderkey"
      " GROUP BY o_orderkey, o_totalprice";
  sql::OptimizerOptions unrewritten;
  unrewritten.pushdown = false;
  unrewritten.join_order = false;
  QueryOptions opt;
  opt.threads = 2;
  for (const bool dup : {false, true}) {
    const Database db = TinyOrders(dup);
    auto catalog = sql::MakeCatalog(db);
    EXPECT_EQ(catalog->Find("orders")->keys.empty(), dup);
    sql::CompileResult c = sql::Compile(catalog, text);
    sql::CompileResult plain = sql::Compile(catalog, text, unrewritten);
    ASSERT_TRUE(c.ok() && plain.ok());
    // With a verified key the rewrite fires (the control); with the
    // duplicate it must not, and both plans agree on both engines.
    EXPECT_EQ(c.query->plan().PreAggregated() == nullptr, dup)
        << c.query->ExplainOptimized();
    const QueryResult reference = plain.query->RunVolcano(opt, {});
    EXPECT_EQ(reference.rows.size(), 4u);
    EXPECT_EQ(c.query->RunVolcano(opt, {}), reference);
    EXPECT_EQ(c.query->LowerTectorwise().Run(opt, {}), reference);
    EXPECT_EQ(plain.query->LowerTectorwise().Run(opt, {}), reference);
  }
}

TEST(SqlFuzzTest, SmokeSeedsAgreeAcrossEngines) {
  // A handful of seeds inline (the 200-query sweep runs in
  // sql_differential_test.cc and the sql_fuzz example).
  auto catalog = TpchCatalog();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string text = sql::GenerateFuzzQuery(*catalog, seed);
    sql::CompileResult c = sql::Compile(catalog, text);
    ASSERT_TRUE(c.ok()) << "seed " << seed << ":\n"
                        << text << "\n"
                        << (c.error ? c.error->Format() : "");
    QueryOptions opt;
    opt.threads = 2;
    const QueryResult tw = c.query->LowerTectorwise().Run(opt, {});
    const QueryResult volcano = c.query->RunVolcano(opt, {});
    EXPECT_EQ(tw, volcano) << "seed " << seed << ":\n"
                           << text << "\n-- tectorwise --\n"
                           << tw.ToString(10) << "-- volcano --\n"
                           << volcano.ToString(10);
  }
}

TEST(SqlReferenceTest, AllNineTextsCompile) {
  for (const char* name :
       {"Q1", "Q6", "Q3", "Q9", "Q18", "SSB-Q1.1", "SSB-Q2.1", "SSB-Q3.1",
        "SSB-Q4.1"}) {
    const char* text = sql::SqlTextFor(name);
    ASSERT_NE(text, nullptr) << name;
  }
  EXPECT_EQ(sql::SqlTextFor("Q99"), nullptr);
}

}  // namespace
}  // namespace vcq
