// Ablation: the SQL optimizer's two plan-shaping passes — predicate
// pushdown (which also governs group-by pushdown) and greedy join ordering
// (sql/optimizer.h) — on Q3-, Q9- and Q18-shaped statements written with
// an adversarial FROM order (the fact table first, the selective dimension
// filters last). The Q18 shape groups lineitem by its order key, so the
// pushdown configs aggregate and apply HAVING before any join. Four configs
// {off, pushdown only, join order only, both} are compared on three axes:
// the optimizer's own cost estimate (Σ estimated join-output rows), the
// interpreter's measured intermediate-tuple count (sql/lower.h
// VolcanoStats — ground truth the estimate is supposed to track), and
// Tectorwise wall time. The acceptance bar for this subsystem is the
// strict reduction of measured intermediate tuples from "off" to "both";
// the bench exits nonzero when a query misses it.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchutil/bench.h"
#include "datagen/tpch.h"
#include "runtime/options.h"
#include "runtime/params.h"
#include "sql/sql.h"

namespace {

using namespace vcq;

struct Config {
  const char* name;
  sql::OptimizerOptions options;
};

struct Workload {
  const char* name;
  const char* text;
};

// Every statement lists lineitem first so the unoptimized left-deep plan
// joins the fact table before any filter has a chance to shrink it.
const Workload kWorkloads[] = {
    {"Q3-shaped",
     "SELECT o_orderkey, SUM(l_extendedprice) AS v"
     " FROM lineitem, orders, customer"
     " WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
     " AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15'"
     " GROUP BY o_orderkey"},
    {"Q9-shaped",
     "SELECT n_name, SUM(l_extendedprice - l_quantity) AS profit"
     " FROM lineitem, partsupp, supplier, nation, part"
     " WHERE ps_partkey = l_partkey AND ps_suppkey = l_suppkey"
     " AND s_suppkey = l_suppkey AND n_nationkey = s_nationkey"
     " AND p_partkey = l_partkey AND p_name LIKE '%green%'"
     " GROUP BY n_name"},
    {"Q18-shaped",
     "SELECT c_name, o_orderkey, o_totalprice, SUM(l_quantity) AS qty"
     " FROM lineitem, orders, customer"
     " WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
     " GROUP BY c_name, o_orderkey, o_totalprice"
     " HAVING SUM(l_quantity) > 300"},
};

}  // namespace

int main() {
  const double sf = benchutil::EnvSf(0.2);
  const int reps = benchutil::EnvReps(3);
  const size_t threads = benchutil::EnvThreads(4);

  std::printf("SQL optimizer ablation — TPC-H SF=%.2f, tectorwise x%zu, "
              "%d reps\n",
              sf, threads, reps);
  const runtime::Database db = datagen::GenerateTpch(sf);
  const auto catalog = sql::MakeCatalog(db);

  const Config configs[] = {
      {"off", {.fold_constants = true, .pushdown = false, .join_order = false}},
      {"pushdown", {.fold_constants = true, .pushdown = true,
                    .join_order = false}},
      {"join-order", {.fold_constants = true, .pushdown = false,
                      .join_order = true}},
      {"both", {.fold_constants = true, .pushdown = true, .join_order = true}},
  };

  runtime::QueryOptions tw_opt;
  tw_opt.threads = threads;
  const runtime::QueryOptions volcano_opt;
  const runtime::QueryParams no_params;

  bool strict_reduction = true;
  for (const Workload& w : kWorkloads) {
    std::printf("\n=== %s ===\n%s\n", w.name, w.text);
    std::printf("  %-11s %14s %18s %10s\n", "config", "est. cost",
                "measured interm.", "tw ms");
    uint64_t off_tuples = 0;
    uint64_t both_tuples = 0;
    for (const Config& c : configs) {
      const sql::CompileResult compiled =
          sql::Compile(catalog, w.text, c.options);
      if (!compiled.ok()) {
        std::fprintf(stderr, "compile failed under %s: %s\n", c.name,
                     compiled.error->Format().c_str());
        return 1;
      }
      sql::VolcanoStats stats;
      compiled.query->RunVolcano(volcano_opt, no_params, &stats);
      const benchutil::Measurement m = benchutil::Measure(
          [&] { compiled.query->LowerTectorwise().Run(tw_opt, no_params); },
          reps);
      std::printf("  %-11s %14.0f %18llu %10.2f\n", c.name,
                  compiled.query->cost(),
                  static_cast<unsigned long long>(stats.intermediate_tuples),
                  m.ms);
      if (!std::strcmp(c.name, "off")) off_tuples = stats.intermediate_tuples;
      if (!std::strcmp(c.name, "both"))
        both_tuples = stats.intermediate_tuples;
    }
    if (both_tuples >= off_tuples) {
      std::fprintf(stderr,
                   "%s: full optimizer did not reduce intermediate tuples "
                   "(%llu -> %llu)\n",
                   w.name, static_cast<unsigned long long>(off_tuples),
                   static_cast<unsigned long long>(both_tuples));
      strict_reduction = false;
    }
  }
  if (!strict_reduction) return 1;
  std::printf("\nfull optimizer strictly reduced measured intermediate "
              "tuples on every workload\n");
  return 0;
}
