#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_catalog.h"
#include "api/session.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "sql/catalog.h"
#include "sql/fuzz.h"
#include "sql/reference_queries.h"
#include "sql/sql.h"

// The SQL front door's strongest guarantee: for every query of the studied
// workload, the hand-written SQL text (sql/reference_queries.h) prepared
// through Session::PrepareSql yields BYTE-IDENTICAL results to the
// catalog's hand-built plans — on Tectorwise at 1 and 8 threads and on the
// Volcano interpreter (also through Session::Prepare, which compiles the
// same text), under the spec-default parameter bindings. On top
// of that, a seeded random-query sweep (sql/fuzz.h) differentially tests
// the two lowerings against each other far outside the nine fixed shapes,
// and both against Volcano running the unrewritten plan of the same text
// (no pushdown, FROM-order joins), so a wrong optimizer rewrite cannot
// pass just because both engines run it the same way.

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

const Database& DbFor(Workload w) {
  return w == Workload::kTpch ? TpchDb() : SsbDb();
}

/// Binds the catalog's spec defaults onto a SQL-prepared query (which has
/// no defaults of its own — the texts reuse the catalog's $names).
void BindDefaults(PreparedQuery& q, const QueryInfo& info) {
  for (const ParamSpec& spec : info.params) {
    if (spec.type == runtime::ParamType::kInt) {
      q.Set(spec.name, spec.default_int);
    } else {
      q.Set(spec.name, spec.default_string);
    }
  }
}

class SqlWorkloadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SqlWorkloadTest, SqlMatchesCatalogPlanOnAllEngines) {
  const char* name = GetParam();
  const QueryInfo* info = FindQuery(name);
  ASSERT_NE(info, nullptr) << name;
  const char* text = sql::SqlTextFor(name);
  ASSERT_NE(text, nullptr) << name;

  Session session(DbFor(info->workload));
  // The ground truth: the catalog's hand-built Tectorwise plan with its
  // spec-default bindings.
  const QueryResult reference =
      session.Prepare(Engine::kTectorwise, info->query).Execute();
  ASSERT_TRUE(reference.ok()) << name;
  ASSERT_FALSE(reference.rows.empty()) << name << ": empty reference";

  for (const size_t threads : {size_t{1}, size_t{8}}) {
    QueryOptions opt;
    opt.threads = threads;
    PreparedQuery q =
        session.PrepareSql(text, Engine::kTectorwise, opt);
    BindDefaults(q, *info);
    const QueryResult got = q.Execute();
    EXPECT_EQ(got, reference)
        << name << " (tectorwise, " << threads << " threads)\n"
        << text;
  }
  PreparedQuery v = session.PrepareSql(text, Engine::kVolcano);
  BindDefaults(v, *info);
  EXPECT_EQ(v.Execute(), reference) << name << " (volcano)\n" << text;
  // The catalog's Volcano handle runs the same text with the catalog's
  // own default bindings.
  EXPECT_EQ(session.Prepare(Engine::kVolcano, info->query).Execute(),
            reference)
      << name << " (catalog volcano)";
}

INSTANTIATE_TEST_SUITE_P(AllNine, SqlWorkloadTest,
                         ::testing::Values("Q1", "Q6", "Q3", "Q9", "Q18",
                                           "SSB-Q1.1", "SSB-Q2.1",
                                           "SSB-Q3.1", "SSB-Q4.1"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-' || c == '.') c = '_';
                           return n;
                         });

/// Seeds come from a fixed base so failures reproduce; override the sweep
/// size with VCQ_SQL_FUZZ_N (the CI smoke uses the sql_fuzz example
/// instead, which exposes --seed/--n).
size_t FuzzCount(size_t fallback) {
  const char* env = std::getenv("VCQ_SQL_FUZZ_N");
  if (env == nullptr) return fallback;
  return static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

/// Runs the sweep; `*pushed` counts the seeds whose plan pre-aggregates
/// (the group-by pushdown fired).
void FuzzSweep(const Database& db, uint64_t seed_base, size_t count,
               size_t* pushed) {
  auto catalog = sql::MakeCatalog(db);
  sql::OptimizerOptions unrewritten;
  unrewritten.pushdown = false;
  unrewritten.join_order = false;
  size_t compiled = 0;
  *pushed = 0;
  for (uint64_t seed = seed_base; seed < seed_base + count; ++seed) {
    const std::string text = sql::GenerateFuzzQuery(*catalog, seed);
    sql::CompileResult c = sql::Compile(catalog, text);
    sql::CompileResult plain = sql::Compile(catalog, text, unrewritten);
    ASSERT_TRUE(c.ok() && plain.ok())
        << "seed " << seed << " failed to compile:\n"
        << text << "\n"
        << (c.error ? c.error->Format() : "");
    ++compiled;
    if (c.query->plan().PreAggregated() != nullptr) ++*pushed;
    QueryOptions opt;
    opt.threads = (seed % 2 == 0) ? 1 : 4;
    const QueryResult tw = c.query->LowerTectorwise().Run(opt, {});
    QueryOptions vopt;
    vopt.threads = 1;
    const QueryResult volcano = c.query->RunVolcano(vopt, {});
    ASSERT_EQ(tw, volcano) << "seed " << seed << " diverged:\n" << text;
    ASSERT_EQ(volcano, plain.query->RunVolcano(vopt, {}))
        << "seed " << seed << " differs from the unrewritten plan:\n"
        << text << "\n"
        << c.query->ExplainOptimized();
  }
  // Every seed must yield a usable query — the generator has no reject
  // path, so a drop here means it left the supported subset.
  EXPECT_EQ(compiled, count);
  std::printf("group-by pushdown fired in %zu of %zu seeds\n", *pushed,
              count);
}

TEST(SqlFuzzDifferentialTest, TpchSeededSweep) {
  // The generator's key-grouped shapes (e.g. o_orderkey with aggregates
  // over lineitem) must reach the group-by pushdown.
  size_t pushed = 0;
  FuzzSweep(TpchDb(), /*seed_base=*/1000, FuzzCount(200), &pushed);
  EXPECT_GT(pushed, 0u);
}

TEST(SqlFuzzDifferentialTest, SsbSeededSweep) {
  size_t pushed = 0;
  FuzzSweep(SsbDb(), /*seed_base=*/5000, FuzzCount(200) / 2, &pushed);
}

}  // namespace
}  // namespace vcq
