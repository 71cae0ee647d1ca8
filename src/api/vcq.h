#ifndef VCQ_API_VCQ_H_
#define VCQ_API_VCQ_H_

#include <string>
#include <vector>

#include "runtime/options.h"
#include "runtime/query_result.h"
#include "runtime/relation.h"

// Public entry points of the VCQ library.
//
// The serving API is vcq::Session (api/session.h): a long-lived object
// owning the database reference, a worker pool, and a scheduling stream
// on that pool's query scheduler (runtime/scheduler.h). Prepare a query
// once — validation, plan building, compaction-registration derivation,
// the catalog parameter cross-check, and the Typer column-accessor cache
// all happen at prepare time — then execute it as often as you like, with
// parameter bindings, concurrently with other in-flight queries:
//
//   vcq::runtime::Database db = vcq::datagen::GenerateTpch(1.0);
//   vcq::Session session(db);
//   session.SetWeight(2.0);        // weighted fairness vs other sessions
//   vcq::PreparedQuery q6 = session.Prepare(
//       vcq::Engine::kTyper, vcq::Query::kQ6, {.threads = 8});
//   std::cout << q6.Execute().ToString();          // spec-default bindings
//   q6.Set("discount_lo", 4).Set("shipdate_lo", "1995-01-01");
//   std::cout << q6.Execute().ToString();          // rebound, same plan
//   vcq::ExecutionHandle h = q6.ExecuteAsync();    // overlap a query mix
//   h.Cancel();                                    // cooperative cancel
//   auto r = q6.Execute(std::chrono::milliseconds(50));  // with deadline
//   if (!r.ok()) { /* kCancelled / kDeadlineExceeded / kRejected */ }
//
// Scheduling model: parallel regions of all in-flight queries are
// gang-scheduled onto the pool's FIXED worker set (thread count is a
// configuration, not a function of load), ordered by per-session weighted
// fair queueing; executions beyond the scheduler's admission limit get
// ExecStatus::kRejected backpressure instead of queueing unboundedly.
// Cancellation and deadlines are cooperative: both engines poll at morsel
// boundaries, and a stopped execution frees its slots and memory and
// returns an empty result carrying the status.
//
// Error-handling model: every execution resolves to exactly one
// runtime::ExecStatus, and a non-kOk result is always EMPTY — partial rows
// are never surfaced. The taxonomy:
//   kOk                 complete result.
//   kCancelled          ExecutionHandle::Cancel() or a pre-tripped token.
//   kDeadlineExceeded   the execution's deadline passed (while queued for
//                       admission or mid-query at a poll point).
//   kRejected           admission backpressure: the scheduler's in-flight
//                       or queue limit was hit. Transient — retry later.
//   kResourceExhausted  a memory-budget trip (per-query
//                       QueryOptions::memory_budget or the process-wide
//                       runtime::ResourceGovernor), a memory-aware
//                       admission rejection (the catalog's build-size
//                       estimate cannot ever fit the scheduler's byte
//                       budget), or a real std::bad_alloc from a worker.
//   kInternalError      any other exception escaping a worker; the query
//                       drains and the process survives.
// Budget trips are SOFT: crossing a budget never throws — it trips the
// run's CancelToken (first cause wins, sticky) and every worker drains at
// its next poll point, so overshoot is bounded by one pool chunk per
// worker. Hard allocation failure (std::bad_alloc) unwinds instead; the
// scheduler's run-slot backstop converts it to the same sticky trip, so
// barriers never deadlock on a dead worker and partially built hash
// tables are never probed. After ANY failed execution the run's pools are
// fully released (runtime::MemPool::live_bytes() returns to its pre-query
// baseline) and an immediate re-execution of the same prepared query is
// byte-identical to a never-failed run. Transient statuses (kRejected,
// kResourceExhausted) can be retried automatically with
// PreparedQuery::ExecuteWithRetry (api/session.h: capped exponential
// backoff, deterministic jitter, and an optional RetryPolicy::total_timeout
// wall-clock budget across all attempts). The failure paths themselves are
// testable deterministically via runtime::FaultInjector
// (runtime/fault_injector.h; env: VCQ_FAULT / VCQ_FAULT_SEED).
//
// Degrade-don't-die model (PR 8): a budget trip no longer has to kill the
// query — three nested mechanisms trade speed for survival, and every one
// of them preserves byte-identical results:
//   1. Spill (QueryOptions::spill): under ledger pressure the memory-
//      intensive operators — hash-join builds and aggregation tables, both
//      engines — partition their state Grace-style to temp files
//      (runtime/spill.h) instead of tripping, then stream it back for the
//      merge/probe. Spill files live under VCQ_SPILL_DIR (else TMPDIR, else
//      /tmp) in a per-execution subdirectory that is always removed, even
//      on failure; total spill disk is capped by QueryOptions::spill_limit
//      (else the VCQ_SPILL_LIMIT env; 0 = unlimited) — exceeding the cap is
//      a normal kResourceExhausted trip. Bytes written are reported in
//      QueryResult::spilled_bytes, and every spill I/O site is a registered
//      fault point (spill.open/write/read/unlink).
//   2. Degraded retry ladder (PreparedQuery::ExecuteWithDegradation): on
//      kResourceExhausted — and only then — the prepared query is re-run
//      down a fixed ladder of cheaper configurations: as prepared -> spill
//      -> spill + half the threads -> spill + 1 thread + minimal vectors.
//      The first surviving rung's result is returned with its rung id in
//      QueryResult::degraded_rung; rungs are individually gated by
//      DegradationPolicy and per-rung outcomes are visible via
//      ExplainDegradation(). Non-transient failures stop the descent.
//   3. Tenant-fair brown-out (the scheduler): each Session can be bounded
//      by Session::SetQuota (max in-flight executions and bytes) — a
//      session at its quota WAITS for its own releases instead of starving
//      neighbors. When the admission queue itself fills past a configured
//      pressure threshold (Scheduler::SetBrownout), NEW arrivals from the
//      heaviest session (most admitted bytes in flight) are shed with
//      kRejected while lighter tenants keep queueing — overload degrades
//      the tenant causing it, not the whole process.
//
// Memory model: a warm execution reuses the memory of the previous ones.
// The large per-query allocations — MemPool chunks (materialize pools,
// group row blocks), hash-table directories and join-build arenas — come
// from one process-wide runtime::BlockCache (runtime/block_cache.h) and go
// back to it when the run ends, instead of to the system allocator, which
// would unmap them and fault them in again, page by page, on the next
// run. The cache keeps a block only while its cached bytes plus the
// governor's in-use bytes stay within the governor's high-water mark
// (runtime::ResourceGovernor::peak()), so an idle process never holds more
// than its busiest moment did; the vcq.memory.cached_bytes gauge reports
// it. Cached bytes belong to no query: budgets, the governor's in_use()
// and MemPool::live_bytes() count only memory that live executions hold,
// and all three return to their baselines after every run. There is no
// setting.
//
// Execution knobs: three engine-level strategies the paper's sections vary
// — Tectorwise vector size (§4.1), SIMD primitives (§5) and micro-adaptive
// aggregation (§8.4) — are static QueryOptions fields. The caller's
// setting is each knob's only source: nothing changes it between
// executions, except the degradation ladder's explicit rungs above. Every
// setting produces byte-identical results (tests/join_path_test.cc and
// tests/tpch_queries_test.cc sweep engine x threads x SIMD and vector
// size); the knobs change speed, never answers. Batch compaction is not a
// knob: Tectorwise always merges sparse batches at its Select, hash-join
// probe and group-by input (tectorwise/compaction.h).
//
// SQL model (src/sql/): the catalog queries above are hand-built plans,
// but a Session can also compile ad-hoc SQL text —
//
//   vcq::PreparedQuery q = session.PrepareSql(
//       "SELECT o_orderkey, SUM(l_extendedprice) AS v"
//       " FROM lineitem, orders"
//       " WHERE l_orderkey = o_orderkey AND o_orderdate < $cutoff"
//       " GROUP BY o_orderkey ORDER BY v DESC LIMIT 10");
//   q.Set("cutoff", "1995-03-15");
//   std::cout << q.Execute().ToString();
//   std::cout << session.ExplainSql("SELECT ...");  // every stage
//
// The pipeline is lexer → recursive-descent parser → AST → binder (typed
// logical plan against a sql::Catalog derived from the database schema,
// with per-column min/max statistics and verified unique keys) →
// optimizer (constant folding, predicate pushdown, greedy
// smallest-intermediate join ordering on key-aware estimates, group-by
// pushdown through key joins) →
// lowering onto the same tectorwise::PlanBuilder DAG the catalog queries
// use — so SQL-prepared queries inherit the whole runtime stack above
// (scheduler, governor, spill, degradation) unchanged. `$name`
// placeholders become named parameters with NO defaults; every one must
// be bound before Execute. Malformed SQL check-fails at PrepareSql with a
// 1-based line:column diagnostic and never reaches Execute (sql::Compile
// is the recoverable-error variant). Engines: kTectorwise, and kVolcano
// as the single-threaded differential oracle — tests/sql_differential_
// test.cc and the seeded fuzz harness (sql/fuzz.h, examples/sql_fuzz.cpp)
// hold the two to byte-identical results; kTyper cannot run ad-hoc SQL
// (its pipelines are ahead-of-time compiled per catalog query). Catalog
// Volcano handles (Session::Prepare) take this same path over each
// query's reference text (sql/reference_queries.h), so Volcano covers
// both workloads. Try examples/sql_shell.cpp for an interactive front end.
//
// Observability model (runtime/trace.h + runtime/metrics.h): two halves,
// one recording path.
//
//   Per-execution TRACES. QueryOptions::trace == TraceLevel::kSpans makes
//   the session allocate a QueryTrace and stamp it into
//   QueryResult::trace on success AND failure. The trace holds spans for
//   every stage of the query's life — SQL parse/bind/optimize/lower (from
//   PrepareSql, prepended to each execution), admission wait, gang
//   dispatch, per-pipeline and per-operator execution, spill I/O,
//   governor trips, retry backoffs and degradation-rung attempts — all on
//   one monotonic clock. kOff (the default) allocates nothing and costs a
//   null check per instrumentation point (tests/trace_test.cc asserts
//   ≤2% on a Q6 microbench, and byte-identical results either way).
//   Render as chrome://tracing JSON (QueryTrace::ToChromeJson, also
//   engine_explorer --trace-json) or as the measured plan tree
//   (PreparedQuery::ExplainAnalyze — per node: rows, batches, self time,
//   ns/tuple, batch density, build/probe split, spill bytes). The trace
//   also owns the per-site join-build telemetry (node_telemetry()): any
//   run with a trace sink records its build spans there, and EXPLAIN
//   ANALYZE and the benches read the same numbers.
//
//   Process-wide METRICS. A global registry of counters, gauges, and
//   log2-bucketed histograms named vcq.<subsystem>.<what>[_total] —
//   scheduler admission/shed/queue depth, governor live and peak bytes,
//   spill bytes, degradation-ladder rung outcomes, and
//   per-session query latency percentiles (vcq.query.latency_us
//   p50/p95/p99). Snapshot as JSON via Session::MetricsSnapshot() (also
//   sql_shell \metrics) or Prometheus text via metrics::
//   RenderPrometheus() (engine_explorer --metrics prints both). Setting
//   VCQ_SLOW_QUERY_MS=<n> additionally logs one stderr line per query
//   slower than n ms: name, bindings, status, rung, and its top-3 spans.
//
// The query list and per-query parameter specifications (names, types,
// spec defaults) live in the vcq::QueryCatalog (api/query_catalog.h) —
// the single registry behind TpchQueries(), SsbQueries(), and every
// bench/example query list.
//
// RunQuery below survives as a one-shot convenience wrapper over a
// temporary Session with default bindings. See examples/quickstart.cpp
// for a complete program and examples/pricing_report.cpp for parameter
// binding on a warm session.

namespace vcq {

/// The three execution paradigms (paper Table 6 cells):
/// Typer = push + compilation, Tectorwise = pull + vectorization,
/// Volcano = pull + interpretation (single-threaded; catalog queries run
/// their reference SQL text through the same lowering PrepareSql uses —
/// its role is the differential oracle).
enum class Engine { kTyper, kTectorwise, kVolcano };

/// The studied workload (paper §3.3 and §4.4).
enum class Query {
  kQ1,
  kQ6,
  kQ3,
  kQ9,
  kQ18,
  kSsbQ11,
  kSsbQ21,
  kSsbQ31,
  kSsbQ41,
};

/// One-shot compatibility wrapper: prepares `query` on a temporary Session
/// (sharing the process-global worker pool) and executes it once with the
/// catalog's spec-default parameter bindings. The database must come from
/// the matching generator (GenerateTpch for kQ*, GenerateSsb for kSsb*).
runtime::QueryResult RunQuery(const runtime::Database& db, Engine engine,
                              Query query,
                              const runtime::QueryOptions& options = {});

/// EXPLAIN-style dump of the Tectorwise declarative plan for `query`:
/// nodes, steps, consumed columns, parameterized predicates (":name"), and
/// the compaction registrations the plan builder derived from slot usage
/// (see tectorwise/plan.h).
std::string ExplainQuery(const runtime::Database& db, Query query);

const char* EngineName(Engine engine);
const char* QueryName(Query query);
bool IsSsbQuery(Query query);
std::vector<Query> TpchQueries();
std::vector<Query> SsbQueries();

}  // namespace vcq

#endif  // VCQ_API_VCQ_H_
