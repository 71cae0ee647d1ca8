#ifndef VCQ_SQL_LOWER_H_
#define VCQ_SQL_LOWER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "sql/optimizer.h"
#include "tectorwise/queries.h"

// The two backends of the SQL front door. Both consume the same
// PhysicalPlan (optimizer.h) and funnel their rows through the shared
// result writer (result.h), which is what makes their outputs
// byte-identical:
//
//   LowerTectorwise  walks the join tree once and emits a
//                    tectorwise::PlanBuilder DAG (scan → map → select
//                    chains at each site, hash joins with explicit
//                    Build/Probe carries, hash group-by or fixed
//                    aggregation on top). Returns a normal
//                    tectorwise::Prepared, so Session treats SQL plans
//                    exactly like catalog plans (execution knobs
//                    included).
//
//   RunVolcano       interprets the same tree with the tuple-at-a-time
//                    operators (volcano/volcano.h) per execution.
//                    Volcano rows are untyped int64 slots, so string
//                    columns ride as per-column dictionary codes (built
//                    on first use; code order = string order, so joins
//                    and group-bys on codes are exact) and string
//                    predicates are evaluated against the typed column
//                    at the scan into boolean pseudo-slots. Single
//                    threaded by design — it is the differential oracle,
//                    not a contender.
//
// RunVolcano optionally reports per-join output counts, which the
// optimizer ablation bench uses as its ground-truth "intermediate
// tuples" metric.

namespace vcq::sql {

// Both lowerings thread columns up the join tree keyed by (table, column).
// Aggregate `i` of a pre-aggregated leaf (PhysicalPlan::PreAggregated)
// rides as pseudo-column kAggCol | i of that leaf's table, so the join
// code carries it like any other column of that table.
namespace lowering {

constexpr uint32_t kAggCol = 1u << 31;  // column indexes never reach it

inline uint64_t CKey(ColumnId id) {
  return (static_cast<uint64_t>(id.table) << 32) | id.col;
}

inline ColumnId KeyColumn(uint64_t key) {
  return {static_cast<uint32_t>(key >> 32), static_cast<uint32_t>(key)};
}

inline uint64_t AggKey(uint32_t table, size_t i) {
  return CKey({table, kAggCol | static_cast<uint32_t>(i)});
}

inline bool IsAggKey(uint64_t key) { return (key & kAggCol) != 0; }

}  // namespace lowering

struct VolcanoJoinStat {
  std::string label;  // "buildtables⋈probetables"
  uint64_t tuples = 0;
};

struct VolcanoStats {
  std::vector<VolcanoJoinStat> joins;
  /// Σ join output tuples — what predicate pushdown and join ordering
  /// are trying to shrink.
  uint64_t intermediate_tuples = 0;
};

/// Builds the Tectorwise plan for `plan`. Check-fails on physical-plan
/// shapes the binder cannot produce; all user errors were rejected at
/// compile time.
tectorwise::Prepared LowerTectorwise(const PhysicalPlan& plan);

/// Interprets `plan` with the Volcano operators. Parameters are resolved
/// up front into the operator closures; `stats`, when non-null, receives
/// per-join output counts.
runtime::QueryResult RunVolcano(const PhysicalPlan& plan,
                                const runtime::QueryOptions& opt,
                                const runtime::QueryParams& params,
                                VolcanoStats* stats = nullptr);

}  // namespace vcq::sql

#endif  // VCQ_SQL_LOWER_H_
