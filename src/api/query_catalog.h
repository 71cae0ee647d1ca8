#ifndef VCQ_API_QUERY_CATALOG_H_
#define VCQ_API_QUERY_CATALOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "api/vcq.h"
#include "runtime/params.h"

// The single registry of the studied workload: one QueryInfo per query
// holding its display name, workload, and parameter specification
// (names, types, and the paper/spec default bindings).
// TpchQueries()/SsbQueries()/QueryName() and every bench, example, and
// test query list derive from this table — hand-rolled duplicates of it
// are exactly what caused the engine_explorer crash PR 3 fixed, so don't
// reintroduce them.

namespace vcq {

namespace runtime {
class Database;
}  // namespace runtime

enum class Workload { kTpch, kSsb };

/// One declared parameter of a query: the name the engines resolve at
/// execution time, its type, and the spec-constant default that reproduces
/// the paper's workload byte-identically.
struct ParamSpec {
  std::string name;
  runtime::ParamType type;
  /// Default for kString (the value) and kDate (ISO "YYYY-MM-DD").
  std::string default_string;
  /// Default for kInt — fixed-point columns keep their schema scale (a
  /// discount of 0.05 is 5 at scale 2), matching the engines' arithmetic.
  int64_t default_int = 0;
  std::string description;
};

struct QueryInfo {
  Query query;
  std::string name;
  Workload workload;
  /// Every engine implements every query and resolves these same named
  /// parameters (Volcano through the query's reference SQL text).
  std::vector<ParamSpec> params;
  std::string description;
};

/// All studied queries in workload order (TPC-H subset, then SSB).
const std::vector<QueryInfo>& QueryCatalog();

/// Catalog row for `query`.
const QueryInfo& CatalogEntry(Query query);

/// Lookup by display name ("Q1", "SSB-Q4.1"); nullptr when unknown.
const QueryInfo* FindQuery(std::string_view name);

/// The spec-default bindings for every declared parameter of `query` —
/// executing with these reproduces the unparameterized workload
/// byte-identically.
runtime::QueryParams DefaultParams(Query query);

/// Queries of one workload, in catalog order.
std::vector<Query> QueriesFor(Workload workload);

/// Conservative estimate of the query's hash-table build footprint against
/// `db`, in bytes: every build-side relation's tuple count (selectivity
/// ignored — overestimating is the safe direction for admission) times a
/// nominal per-entry cost covering the materialized entry, the directory
/// word, and the join build's entry arena. Session executions pass
/// this to Scheduler::Admit so memory-aware admission queues or rejects a
/// query whose build would overcommit the scheduler's memory budget
/// instead of letting the ledger trip it mid-build.
size_t EstimatedBuildBytes(const runtime::Database& db, Query query);

/// Total input tuples the query scans against `db` (every referenced
/// relation's tuple count) — the normalization constant for per-query
/// cost reporting (the benches' ns/tuple and throughput rows).
size_t ScannedTuples(const runtime::Database& db, Query query);

}  // namespace vcq

#endif  // VCQ_API_QUERY_CATALOG_H_
