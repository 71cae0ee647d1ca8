#ifndef VCQ_SQL_OPTIMIZER_H_
#define VCQ_SQL_OPTIMIZER_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sql/logical.h"

// The optimizer: turns a BoundQuery's table set + join edges into a
// concrete binary join tree and places the filter conjuncts. Three
// independently switchable rewrites (bench/ablation_sql_optimizer.cc
// measures each):
//
//   fold_constants  evaluate constant subtrees of every scalar.
//   pushdown        place each filter at the lowest subtree covering its
//                   tables (single-table filters at the scan); off = all
//                   filters above the last join. Also governs group-by
//                   pushdown (below).
//   join_order      greedy smallest-intermediate ordering (GOO): repeatedly
//                   join the connected pair with the smallest estimated
//                   output. Build side: the side whose join columns are
//                   unique (they cover a catalog key and the side is no
//                   larger than that key's table) when exactly one is,
//                   else the smaller side. Off = left-deep in FROM order
//                   (skipping to the next connected table), accumulated
//                   side as build.
//
// Cardinality model:
//   * Scans: per-column min/max stats give ndv ≈ clamp(max-min+1, 1, |T|);
//     equality selects 1/ndv, ranges their fraction of [min, max],
//     parameters a fixed 0.3 (a two-sided parameter range on one
//     left-hand side, the binder's split of `x BETWEEN $lo AND $hi`,
//     counts as one 0.3 range, not 0.3²).
//   * Key joins: when one side's join columns cover a verified key of a
//     table T in that side (catalog.h), the output is
//     |other side| × (|this side| ÷ |T|): every other-side row finds its
//     one T row with the probability that T's row survived this side.
//     When both sides do, the smaller estimate wins. A pre-aggregated
//     leaf's grouping columns are its key, its group count its |T|.
//   * Other joins: |A|·|B| / Π max(ndv_a, ndv_b) over the key pairs.
//   * Plan cost: Σ estimated join-output rows + rows entering
//     aggregation — the intermediate materialization the rewrites shrink.
//
// Group-by pushdown (eager aggregation; Yan & Larson, VLDB'95): when
//   (1) every aggregate argument reads one table T (COUNT(*) reads none),
//   (2) every table is reachable from T through joins that land on a
//       verified key of the table they reach, so each T row matches at
//       most one row of the rest,
//   (3) each of T's join columns (or the column it equals) is a GROUP BY
//       key, every GROUP BY key reading T is a plain T column, and every
//       filter reading T reads only T,
// then grouping T by its join columns plus its own group columns before
// the joins yields exactly one row per final group: that leaf computes
// every aggregate and applies HAVING, and no aggregation runs above the
// joins (PhysicalPlan::PreAggregated). The optimizer plans the query
// both ways and keeps the cheaper plan, so a selective join (TPC-H Q3)
// still runs before its aggregation while Q18 aggregates lineitem by
// l_orderkey first.

namespace vcq::sql {

struct OptimizerOptions {
  bool fold_constants = true;
  bool pushdown = true;
  bool join_order = true;
};

/// Binary join tree node. Leaves name a table (index into
/// BoundQuery::tables); inner nodes join build × probe on `keys`
/// ({build column, probe column} pairs). `filters` are indexes into
/// BoundQuery::filters applied at this node — after the scan for leaves,
/// after the probe for joins. A leaf with a non-empty `group_by` then
/// groups its rows by those columns (of its own table), computes every
/// BoundQuery aggregate, and applies HAVING.
struct JoinTree {
  int table = -1;
  std::unique_ptr<JoinTree> build;
  std::unique_ptr<JoinTree> probe;
  std::vector<std::array<ColumnId, 2>> keys;
  std::vector<uint32_t> filters;
  std::vector<ColumnId> group_by;
  double est_rows = 0;  // after this node's filters (and HAVING)
  uint32_t mask = 0;    // bit per BoundQuery::tables index

  bool IsLeaf() const { return table >= 0; }
};

struct PhysicalPlan {
  BoundQuery query;
  OptimizerOptions options;
  std::unique_ptr<JoinTree> root;
  /// Σ estimated join-output rows + rows entering aggregation — the
  /// optimizer's plan cost (reported by EXPLAIN and the ablation bench;
  /// intermediate materialization is what the rewrites are trying to
  /// shrink).
  double cost = 0;

  /// The leaf that pre-aggregates (JoinTree::group_by), or null. When set,
  /// the join output holds one row per group — group keys and aggregate
  /// values — and no aggregation runs above the joins.
  const JoinTree* PreAggregated() const;
};

PhysicalPlan Optimize(BoundQuery query, const OptimizerOptions& options);

/// EXPLAIN "optimized" stage: the join tree with estimates and filter
/// placement.
std::string ToString(const PhysicalPlan& plan);

}  // namespace vcq::sql

#endif  // VCQ_SQL_OPTIMIZER_H_
