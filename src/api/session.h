#ifndef VCQ_API_SESSION_H_
#define VCQ_API_SESSION_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "api/query_catalog.h"
#include "api/vcq.h"
#include "runtime/cancel.h"
#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "runtime/relation.h"

// The serving API (paper §8.1: compilation's edge is repeated execution of
// prepared statements; HyPer and Vectorwise both separate a prepare phase
// from many cheap executes over a resident server process).
//
//   vcq::Session session(db);                       // long-lived
//   session.SetWeight(2.0);                         // fair-queueing weight
//   vcq::PreparedQuery q6 = session.Prepare(
//       vcq::Engine::kTectorwise, vcq::Query::kQ6, {.threads = 8});
//   q6.Set("discount_lo", 4).Set("shipdate_lo", "1995-01-01");
//   vcq::runtime::QueryResult r = q6.Execute();     // re-execute at will
//   r = q6.Execute(vcq::runtime::CancelToken::Clock::now() + 50ms);
//   vcq::ExecutionHandle h = q6.ExecuteAsync();
//   h.Cancel();                                     // cooperative cancel
//
// Prepare validates the query/engine pair, builds the Tectorwise plan DAG
// exactly once, cross-checks the plan's parameter reads against the
// catalog's declared types (ValidatePlanParams), and clamps threads to the
// session scheduler's gang capacity. Execute only does per-run work and is
// safe to call concurrently; in-flight executions are gang-scheduled on
// the session pool's fixed worker set with per-session weighted fairness
// (runtime/scheduler.h). Every execution passes admission control first —
// an overloaded scheduler answers ExecStatus::kRejected instead of
// queueing unboundedly — and carries a CancelToken both engines poll at
// morsel boundaries, so deadlines and Cancel() take effect mid-query.
// Non-kOk executions return an empty result carrying the status; partial
// rows are never surfaced.

namespace vcq {

namespace tectorwise {
class Plan;
}  // namespace tectorwise

namespace sql {
class Catalog;
}  // namespace sql

class PreparedQuery;

/// Retry schedule for PreparedQuery::ExecuteWithRetry: transient failures —
/// admission backpressure (kRejected) and memory-budget trips
/// (kResourceExhausted) — are retried with capped exponential backoff plus
/// deterministic jitter; every other status (including kOk) returns
/// immediately. Each attempt is a fresh execution with a fresh token, so a
/// previous attempt's sticky trip never bleeds into the next.
struct RetryPolicy {
  /// Total attempts including the first (>= 1).
  size_t max_attempts = 3;
  /// Backoff before the second attempt; doubled per retry up to the cap.
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{1000};
  /// Jitter is derived from this seed (attempt-indexed), so a given policy
  /// replays the identical schedule — tests and the fault harness stay
  /// deterministic. Each backoff is scaled into [0.5, 1.0) of its nominal
  /// value.
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Overall wall-clock budget across ALL attempts and the sleeps between
  /// them (0 = unbounded). Every attempt runs with a deadline at the
  /// budget's end, backoff sleeps are clamped to the remaining budget, and
  /// no new attempt starts once it is exhausted — a caller asking for "3
  /// tries within 200 ms" gets exactly that, not 3 tries plus unbounded
  /// sleeps. The final attempt's result is returned either way.
  std::chrono::milliseconds total_timeout{0};
};

/// Which rungs PreparedQuery::ExecuteWithDegradation may descend to when an
/// execution fails with kResourceExhausted. The ladder trades speed for
/// survival, one rung at a time:
///
///   rung 0  as prepared (in-memory, full parallelism)
///   rung 1  + spill: operators stage build/group state to temp files
///           under memory pressure instead of failing (runtime/spill.h)
///   rung 2  + half the prepared thread count (fewer concurrent
///           worker-local tables and materialize pools)
///   rung 3  + single-threaded, minimal vectors (Tectorwise vector_size
///           256) — the smallest footprint this engine can run at
///
/// Results are byte-identical across rungs (the spill and merge paths
/// preserve the in-memory visit order); only the resource profile changes.
/// Disabling a rung skips it — the ladder tries the remaining ones in
/// order.
struct DegradationPolicy {
  bool allow_spill = true;
  bool allow_reduced_threads = true;
  bool allow_small_vectors = true;
};

/// A waitable in-flight execution started by PreparedQuery::ExecuteAsync.
/// Handles are cheap shared references; Wait() may be called once to take
/// the result. Cancel() requests cooperative cancellation: the engines
/// stop claiming morsels, every pool slot is freed, run-local memory is
/// released, and Wait() returns an empty result with status kCancelled
/// (or kOk if the execution won the race and finished first).
class ExecutionHandle {
 public:
  /// Blocks until the execution finishes and surrenders its result.
  runtime::QueryResult Wait();
  /// Non-blocking completion probe.
  bool Done() const;
  /// Requests cancellation; idempotent, safe from any thread, does not
  /// consume the handle.
  void Cancel();

 private:
  friend class PreparedQuery;
  struct State;
  std::shared_ptr<State> state_;
};

/// A validated, plan-built query handle. Copies share the underlying plan
/// and bindings. Execute() and ExecuteAsync() may be called concurrently
/// from any thread (each execution snapshots the bindings and creates its
/// own run state); Set() interleaved with concurrent executions is defined
/// — each execution sees a consistent snapshot — but which snapshot an
/// in-flight execution sees is unspecified.
class PreparedQuery {
 public:
  using Deadline = runtime::CancelToken::Clock::time_point;

  /// Binds an integer parameter (fixed-point values keep their schema
  /// scale). Check-fails on unknown names or non-int parameters.
  PreparedQuery& Set(std::string_view name, int64_t value);
  /// Binds a string or date parameter (dates as ISO "YYYY-MM-DD").
  PreparedQuery& Set(std::string_view name, std::string_view value);
  /// Restores the catalog's spec-default bindings (SQL-prepared handles
  /// declare no defaults — their bindings are cleared).
  PreparedQuery& ResetParams();
  /// Current bindings snapshot.
  runtime::QueryParams params() const;

  /// Runs the prepared plan with the current bindings and blocks for the
  /// result. Callable concurrently with itself and other queries of the
  /// same session. Check result.status: admission control may reject
  /// (kRejected) under load.
  runtime::QueryResult Execute() const;
  /// Runs with explicit bindings layered over the catalog defaults (the
  /// handle's own bindings are ignored).
  runtime::QueryResult Execute(const runtime::QueryParams& params) const;
  /// Runs with a deadline: once it passes — while waiting for admission or
  /// mid-query at a morsel boundary — the execution stops and returns an
  /// empty result with status kDeadlineExceeded.
  runtime::QueryResult Execute(Deadline deadline) const;
  /// Convenience: deadline = now + timeout.
  runtime::QueryResult Execute(std::chrono::milliseconds timeout) const;
  /// Execute() with automatic retry of transient failures (admission
  /// kRejected, budget kResourceExhausted) per `policy`: capped exponential
  /// backoff with deterministic jitter between attempts, fresh CancelToken
  /// per attempt. Returns the first non-transient result, or the last
  /// transient failure once attempts are exhausted.
  runtime::QueryResult ExecuteWithRetry(const RetryPolicy& policy = {}) const;
  /// Execute() with graceful degradation instead of failure: on
  /// kResourceExhausted the query is re-run one rung down the ladder
  /// (spill -> fewer threads -> minimal vectors; see DegradationPolicy)
  /// until it succeeds, fails for a non-memory reason, or runs out of
  /// enabled rungs. The returned result's `degraded_rung` records where it
  /// ran and `spilled_bytes` how much hit disk; rows are byte-identical to
  /// an in-memory run at any rung. An optional deadline bounds the whole
  /// descent.
  runtime::QueryResult ExecuteWithDegradation(
      const DegradationPolicy& policy = {}) const;
  runtime::QueryResult ExecuteWithDegradation(const DegradationPolicy& policy,
                                              Deadline deadline) const;
  /// Starts the execution on the session scheduler's coordinator threads
  /// and returns immediately; the handle's Wait() yields the result and
  /// its Cancel() stops the query cooperatively.
  ExecutionHandle ExecuteAsync() const;
  /// Async with a deadline (see Execute(Deadline)).
  ExecutionHandle ExecuteAsync(Deadline deadline) const;

  Engine engine() const;
  /// Catalog query id; check-fails for SQL-prepared handles (they have no
  /// catalog row — introspect via info() and is_sql() instead).
  Query query() const;
  /// True when this handle came from Session::PrepareSql.
  bool is_sql() const;
  /// Catalog row: name, workload, declared parameters. SQL-prepared
  /// handles get a synthesized row (name "SQL", one ParamSpec per $param
  /// declared in the text, no defaults).
  const QueryInfo& info() const;
  const runtime::QueryOptions& options() const;

  /// EXPLAIN surface of the self-tuning state (runtime/tuner.h): per knob,
  /// the arm set with visit counts and mean measured cost, and the arm a
  /// frozen execution would choose. Returns "tuning: off\n" when the query
  /// was prepared with TuningMode::kOff.
  std::string ExplainTuning() const;
  /// Pins every knob to its current best learned arm: subsequent
  /// executions behave as TuningMode::kFrozen regardless of the prepared
  /// mode. No-op under kOff.
  PreparedQuery& FreezeTuning();
  /// True once the tuner's bounded exploration phase has completed (every
  /// arm of every knob visited); always true under kOff.
  bool TuningConverged() const;
  /// Peak ledger bytes measured across this handle's successful
  /// executions; 0 until the first one completes. Once nonzero it replaces
  /// the catalog's static build estimate in memory-aware admission.
  size_t measured_peak_bytes() const;
  /// EXPLAIN surface of the degradation ladder (mirrors ExplainTuning):
  /// per rung, how many ExecuteWithDegradation attempts ran there and how
  /// many succeeded — the operational record of how often this query needs
  /// to shed which resource to survive.
  std::string ExplainDegradation() const;
  /// Runs the query ONCE with tracing forced on (current bindings) and
  /// renders the measured plan: per node, output rows, batches, self time,
  /// ns/tuple, batch density, the join build/probe split, and spill bytes
  /// (Tectorwise — tectorwise::ExplainAnalyzeTree); per parallel region,
  /// worker busy time and ns/tuple (Typer/Volcano pipelines). The header
  /// carries status, wall time, and result cardinality; a failed run still
  /// renders whatever spans it produced. Unlike EXPLAIN this executes the
  /// query — expect full query cost.
  std::string ExplainAnalyze() const;

 private:
  friend class Session;
  struct Impl;
  ExecutionHandle StartAsync(std::shared_ptr<runtime::CancelToken> token)
      const;
  std::shared_ptr<Impl> impl_;
};

/// Long-lived serving handle: owns the database reference, the worker pool
/// its queries execute on, and a scheduling stream on that pool's
/// scheduler (the weighted-fair-queueing unit — SetWeight() biases how
/// this session's pending regions compete with other sessions'). By
/// default sessions share the process-wide pool (one fixed set of gang
/// workers no matter how many sessions exist); pass an explicit pool for
/// isolation or a different thread bound. The database — and an explicit
/// pool — must outlive the session and every PreparedQuery it produced;
/// prepared queries may outlive the session itself (their executions then
/// fall back to the scheduler's default stream).
class Session {
 public:
  explicit Session(const runtime::Database& db);
  Session(const runtime::Database& db, runtime::WorkerPool& pool);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Builds the plan once (Tectorwise; Typer pipelines are ahead-of-time
  /// compiled, so prepare is parameter setup + column-accessor cache
  /// creation; Volcano compiles the query's reference SQL text as
  /// PrepareSql does), cross-checks Tectorwise parameter reads against
  /// the catalog (ValidatePlanParams), and returns the reusable handle
  /// with the catalog's default bindings. `options.threads` is clamped to the
  /// session pool's gang capacity + 1 — the executing thread acts as
  /// worker 0 — and to options.scheduler_threads when set, so regions
  /// always fit the fixed worker set; the session's pool and scheduling
  /// stream are stamped into the options.
  PreparedQuery Prepare(Engine engine, Query query,
                        const runtime::QueryOptions& options = {}) const;

  /// The SQL front door (sql/sql.h): compiles `sql` — lexer, parser,
  /// binder, optimizer — against a catalog derived from this session's
  /// database schema, lowers it onto the requested engine, and returns an
  /// ordinary PreparedQuery. `$name` placeholders in the text become named
  /// parameters (Set/Execute exactly as for catalog queries) with NO
  /// default bindings — every declared parameter must be bound before
  /// Execute. Malformed SQL check-fails here with a 1-based line:column
  /// position — never at Execute; callers wanting a recoverable error use
  /// sql::Compile directly. Engines: kTectorwise (plan built once, fully
  /// parallel) and kVolcano (tuple-at-a-time differential oracle); kTyper
  /// pipelines are ahead-of-time compiled per catalog query and cannot run
  /// arbitrary SQL — asking for it check-fails. Thread clamping, admission,
  /// tuning knobs, retry/degradation ladders all behave as for Prepare.
  PreparedQuery PrepareSql(std::string_view sql,
                           Engine engine = Engine::kTectorwise,
                           const runtime::QueryOptions& options = {}) const;

  /// All EXPLAIN stages of `sql` (ast / logical / optimized / physical
  /// Tectorwise DAG). Check-fails on malformed SQL, like PrepareSql.
  std::string ExplainSql(std::string_view sql) const;

  /// Weighted-fair-queueing weight of this session's stream (default 1.0):
  /// with every session backlogged, region dispatches are proportional to
  /// the weights. Takes effect on the next dispatch, including for
  /// already-prepared queries.
  Session& SetWeight(double weight);
  double weight() const;

  /// Per-session admission quota (tenant isolation, runtime/scheduler.h):
  /// at most `max_inflight` of this session's executions admitted at once
  /// (0 = unlimited) and at most `max_bytes` of their estimated/measured
  /// memory in flight (0 = unlimited). Excess executions wait their turn —
  /// honoring deadlines — instead of starving other sessions; a query that
  /// could never fit the byte quota fails fast with kResourceExhausted.
  Session& SetQuota(size_t max_inflight, size_t max_bytes);

  const runtime::Database& db() const { return *db_; }
  runtime::WorkerPool& pool() const { return *pool_; }
  /// The session's scheduling stream id (introspection).
  uint64_t stream() const { return stream_; }

  /// JSON snapshot of the process-wide metrics registry
  /// (runtime/metrics.h): counters, gauges (probes refreshed first), and
  /// histograms with p50/p95/p99. Process-scoped — every session sees the
  /// same registry; exposed here because the session is the serving
  /// surface an operator holds.
  static std::string MetricsSnapshot();

 private:
  /// Lazily builds (and then shares) the SQL catalog — schema + column
  /// statistics snapshot of db_ — across every PrepareSql/ExplainSql of
  /// this session.
  std::shared_ptr<const sql::Catalog> SqlCatalog() const;

  const runtime::Database* db_;
  runtime::WorkerPool* pool_;
  uint64_t stream_ = 0;
  mutable std::mutex sql_mu_;
  mutable std::shared_ptr<const sql::Catalog> sql_catalog_;  // guarded
};

/// Prepare-time cross-check of a built Tectorwise plan's parameter reads
/// (CmpParam/BetweenParam/EqOr2Param/ContainsParam) against the catalog's
/// declared ParamSpecs: every read must name a declared parameter and
/// access it the way its ParamType is stored (kInt/kDate numerically,
/// kString as a string) — so query/catalog drift fails at Prepare with a
/// clear message instead of producing garbage at the first Execute.
/// Called by Session::Prepare for every Tectorwise plan; exposed for
/// custom PlanBuilder plans and tests.
void ValidatePlanParams(const tectorwise::Plan& plan, const QueryInfo& info);

}  // namespace vcq

#endif  // VCQ_API_SESSION_H_
