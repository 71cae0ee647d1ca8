#include "api/session.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/resource_governor.h"
#include "runtime/scheduler.h"
#include "runtime/spill.h"
#include "runtime/trace.h"
#include "runtime/worker_pool.h"
#include "sql/catalog.h"
#include "sql/logical.h"
#include "sql/optimizer.h"
#include "sql/reference_queries.h"
#include "sql/sql.h"
#include "tectorwise/plan.h"
#include "tectorwise/queries.h"
#include "typer/queries.h"

namespace vcq {

using runtime::CancelToken;
using runtime::Database;
using runtime::ExecStatus;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;
using runtime::Scheduler;

namespace {

using TyperFn = typer::QueryFn*;

TyperFn TyperRunner(Query query) {
  switch (query) {
    case Query::kQ1: return &typer::RunQ1;
    case Query::kQ6: return &typer::RunQ6;
    case Query::kQ3: return &typer::RunQ3;
    case Query::kQ9: return &typer::RunQ9;
    case Query::kQ18: return &typer::RunQ18;
    case Query::kSsbQ11: return &typer::RunSsbQ11;
    case Query::kSsbQ21: return &typer::RunSsbQ21;
    case Query::kSsbQ31: return &typer::RunSsbQ31;
    case Query::kSsbQ41: return &typer::RunSsbQ41;
  }
  VCQ_CHECK_MSG(false, "unreachable");
  return nullptr;
}

const ParamSpec* FindSpec(const QueryInfo& info, std::string_view name) {
  for (const ParamSpec& spec : info.params) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

/// Synthesizes the QueryInfo row of a SQL-compiled query: name "SQL", the
/// workload inferred from the schema, one ParamSpec per $param declared in
/// the text. There are no spec defaults — SQL parameters must be bound.
QueryInfo SqlQueryInfo(const sql::CompiledQuery& q,
                       const sql::Catalog& catalog) {
  QueryInfo info;
  info.query = Query::kQ1;  // sentinel; PreparedQuery::query() rejects SQL
  info.name = "SQL";
  info.workload = catalog.Find("lineorder") != nullptr ? Workload::kSsb
                                                       : Workload::kTpch;
  info.description = q.text();
  for (const sql::ParamDecl& p : q.params()) {
    ParamSpec spec;
    spec.name = p.name;
    spec.type = p.type;
    spec.description = "declared as $" + p.name + " in the SQL text";
    info.params.push_back(std::move(spec));
  }
  return info;
}

/// Per-execution outcome metrics, recorded on every ExecuteWith exit path
/// (success and failure alike — the latency histogram is only honest if
/// rejections and budget trips land in it too).
void RecordQueryMetrics(const QueryResult& result) {
  static metrics::Counter& queries =
      metrics::Registry::Global().GetCounter("vcq.session.queries_total");
  static metrics::Counter& failures =
      metrics::Registry::Global().GetCounter("vcq.session.failures_total");
  static metrics::Histogram& latency =
      metrics::Registry::Global().GetHistogram("vcq.query.latency_us");
  queries.Add();
  if (!result.ok()) failures.Add();
  latency.Observe(result.wall_ns / 1000);
}

/// Degradation-ladder outcome counters, one runs/ok pair per rung id —
/// the fleet-wide complement of the per-handle ExplainDegradation table.
void CountRung(uint8_t rung, bool ok) {
  const std::string base = "vcq.ladder.rung" + std::to_string(rung);
  metrics::Registry::Global().GetCounter(base + "_runs_total").Add();
  if (ok) metrics::Registry::Global().GetCounter(base + "_ok_total").Add();
}

/// VCQ_SLOW_QUERY_MS: executions at or above this wall-clock threshold log
/// one structured line to stderr. Unset/empty disables (-1); 0 logs every
/// execution (handy when smoke-testing the hook).
int64_t SlowQueryThresholdMs() {
  static const int64_t ms = [] {
    const char* env = std::getenv("VCQ_SLOW_QUERY_MS");
    if (env == nullptr || *env == '\0') return int64_t{-1};
    return static_cast<int64_t>(std::strtoll(env, nullptr, 10));
  }();
  return ms;
}

void MaybeLogSlowQuery(const QueryResult& result, const QueryInfo& info,
                       const QueryParams& params, uint8_t rung,
                       const runtime::QueryTrace* trace) {
  const int64_t threshold = SlowQueryThresholdMs();
  if (threshold < 0) return;
  const uint64_t wall_ms = result.wall_ns / 1'000'000;
  if (wall_ms < static_cast<uint64_t>(threshold)) return;
  std::string line = "[vcq] slow query name=" + info.name;
  line += " wall_ms=" + std::to_string(wall_ms);
  line += " status=";
  line += runtime::StatusName(result.status);
  line += " rung=" + std::to_string(rung);
  for (const ParamSpec& spec : info.params) {
    if (!params.Has(spec.name)) continue;
    line += " $" + spec.name + "=";
    switch (spec.type) {
      case runtime::ParamType::kInt:
        line += std::to_string(params.Int(spec.name));
        break;
      case runtime::ParamType::kDate:
        line += std::to_string(params.Date(spec.name));
        break;
      case runtime::ParamType::kString:
        line += "\"" + std::string(params.Str(spec.name)) + "\"";
        break;
    }
  }
  if (trace != nullptr) {
    // The three widest spans point at where the time went without a full
    // trace export.
    std::vector<runtime::TraceSpan> spans = trace->Spans();
    std::stable_sort(spans.begin(), spans.end(),
                     [](const runtime::TraceSpan& a,
                        const runtime::TraceSpan& b) {
                       return a.duration_ns() > b.duration_ns();
                     });
    const size_t top = std::min<size_t>(3, spans.size());
    for (size_t i = 0; i < top; ++i) {
      line += " span=" + spans[i].name + ":" +
              std::to_string(spans[i].duration_ns() / 1'000'000) + "ms";
    }
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

/// SQL analogue of EstimatedBuildBytes (api/query_catalog.h): every join's
/// build-side input tuples at the same nominal 64 B/tuple — selectivity
/// ignored, overestimating being the safe direction for admission.
size_t SqlEstimatedBuildBytes(const sql::PhysicalPlan& plan) {
  constexpr size_t kBytesPerBuildTuple = 64;
  const std::function<size_t(const sql::JoinTree&)> leaf_tuples =
      [&](const sql::JoinTree& t) -> size_t {
    if (t.IsLeaf()) {
      return plan.query.Table(static_cast<uint32_t>(t.table)).tuple_count;
    }
    return leaf_tuples(*t.build) + leaf_tuples(*t.probe);
  };
  size_t bytes = 0;
  const std::function<void(const sql::JoinTree&)> walk =
      [&](const sql::JoinTree& t) {
        if (t.IsLeaf()) return;
        bytes += leaf_tuples(*t.build) * kBytesPerBuildTuple;
        walk(*t.build);
        walk(*t.probe);
      };
  walk(*plan.root);
  return bytes;
}

/// The options stamping every prepared handle gets: the session's pool
/// unless the caller supplied one, the session's stream, and the thread
/// count clamped to what the pool's gang set can admit.
QueryOptions StampSessionOptions(QueryOptions opt,
                                 runtime::WorkerPool* session_pool,
                                 uint64_t session_stream) {
  if (opt.pool == nullptr) opt.pool = session_pool;
  // The session's stream id only names a stream on the session pool's own
  // scheduler; on a caller-supplied foreign pool it could collide with
  // some other session's stream there, so such runs use that scheduler's
  // default stream (a stale caller-supplied id must not leak through
  // either).
  opt.sched_stream = opt.pool == session_pool ? session_stream : 0;
  // Clamp the region width to what the gang set can admit: the scheduler
  // hands out a region's slots all-or-nothing, and the executing thread
  // itself acts as worker 0, so a query is at most capacity + 1 wide
  // (scheduler_threads is an explicit per-query cap below that).
  size_t cap = opt.pool->scheduler().thread_count() + 1;
  if (opt.scheduler_threads > 0) cap = std::min(cap, opt.scheduler_threads);
  opt.threads = std::max<size_t>(1, std::min(opt.threads, cap));
  return opt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan parameter cross-check
// ---------------------------------------------------------------------------

void ValidatePlanParams(const tectorwise::Plan& plan, const QueryInfo& info) {
  for (const tectorwise::ParamUse& use : plan.param_uses()) {
    const ParamSpec* spec = FindSpec(info, use.name);
    VCQ_CHECK_MSG(spec != nullptr,
                  "plan reads a parameter the catalog does not declare for "
                  "this query — the plan and its QueryCatalog entry drifted");
    const bool spec_is_string = spec->type == runtime::ParamType::kString;
    VCQ_CHECK_MSG(use.string_access == spec_is_string,
                  "plan parameter access disagrees with the catalog's "
                  "declared ParamType (numeric reads cover kInt/kDate, "
                  "string reads cover kString) — fix the plan step's type "
                  "or the catalog entry");
  }
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

struct PreparedQuery::Impl {
  const Database* db;
  Engine engine;
  Query query;
  QueryOptions opt;
  const QueryInfo* info;
  /// True for PrepareSql handles, which own the synthesized catalog row
  /// `info` points at.
  bool is_sql = false;
  QueryInfo owned_info;
  /// The compiled SQL (CompileSql): what Volcano executes — catalog
  /// queries compile their reference text (sql/reference_queries.h) — and
  /// what a PrepareSql handle's Tectorwise plan was lowered from.
  std::shared_ptr<const sql::CompiledQuery> sql;
  /// What ResetParams restores and Execute(params) layers under: the
  /// catalog's spec defaults, or empty for SQL (no declared defaults).
  QueryParams defaults;
  /// Tectorwise only: the plan built at prepare time; per-execution state
  /// is created by each Run, so one plan serves concurrent executions.
  std::optional<tectorwise::Prepared> tw;
  /// Typer only: the (ahead-of-time compiled) parameterized pipeline plus
  /// the per-PreparedQuery resolved-column cache (populated on the first
  /// Execute; later ones skip the per-run accessor derivation).
  TyperFn typer = nullptr;
  typer::ColumnCache typer_cache;

  mutable std::mutex params_mu;
  QueryParams bound;  // guarded by params_mu

  /// Catalog-derived build-side footprint (EstimatedBuildBytes, stamped at
  /// Prepare): what memory-aware admission charges against the scheduler's
  /// in-flight memory budget until the first successful execution replaces
  /// it with the measured peak below.
  size_t est_bytes = 0;
  /// Peak ledger bytes across this handle's successful executions (the
  /// QueryLedger tracks it per run; max-merged here). Once nonzero, it is
  /// what admission charges — the measured footprint replaces the static
  /// 64 B/build-tuple guess on prepared-query re-execution.
  mutable std::atomic<size_t> measured_peak{0};
  /// Degradation-ladder telemetry (ExplainDegradation): per rung, how many
  /// ExecuteWithDegradation attempts ran there and how many succeeded.
  static constexpr size_t kRungs = 4;
  mutable std::array<std::atomic<uint64_t>, kRungs> rung_runs{};
  mutable std::array<std::atomic<uint64_t>, kRungs> rung_ok{};

  /// Handles with compiled SQL only: the prepare-time compile-stage spans
  /// (sql.parse/bind/optimize[/lower]), prepended to every traced
  /// execution of this handle so EXPLAIN ANALYZE and Chrome exports show
  /// compile cost in context.
  std::shared_ptr<runtime::QueryTrace> prepare_trace;

  /// Compiles `text` against `catalog` into `sql`, recording the compile
  /// stages into a fresh prepare_trace. Shared by Prepare (catalog Volcano)
  /// and PrepareSql. Malformed SQL is a caller bug at this API level and
  /// fails at prepare — never at Execute. Callers wanting a recoverable,
  /// positioned error (shells, fuzzers) call sql::Compile themselves.
  void CompileSql(std::shared_ptr<const sql::Catalog> catalog,
                  std::string_view text) {
    prepare_trace = std::make_shared<runtime::QueryTrace>();
    sql::CompileResult compiled =
        sql::Compile(std::move(catalog), text, {}, prepare_trace.get());
    VCQ_CHECK_MSG(compiled.ok(), compiled.error->Format().c_str());
    sql = std::move(compiled.query);
  }

  /// Per-execution overrides of the prepared options, used by the
  /// degradation ladder (0 = keep the prepared value). `trace` (when set)
  /// forces tracing onto this execution and shares one span buffer across
  /// a retry/degradation ladder; `rung` is the ladder rung id the run
  /// executes at (slow-query log context).
  struct RunTweaks {
    bool spill = false;
    size_t threads = 0;
    size_t vector_size = 0;
    std::shared_ptr<runtime::QueryTrace> trace;
    uint8_t rung = 0;
  };

  /// A fresh execution trace, seeded with the handle's prepare-time SQL
  /// stage spans when there are any.
  std::shared_ptr<runtime::QueryTrace> NewTrace() const {
    auto trace = std::make_shared<runtime::QueryTrace>();
    if (prepare_trace != nullptr) trace->Append(*prepare_trace);
    return trace;
  }

  /// The one exit path of ExecuteWith: stamps wall time and the trace
  /// handle (success AND failure), records the outcome metrics, and logs
  /// the slow-query line when the VCQ_SLOW_QUERY_MS hook is armed.
  QueryResult Finish(QueryResult result,
                     std::shared_ptr<runtime::QueryTrace> trace,
                     uint64_t wall_start, const QueryParams& params,
                     uint8_t rung) const {
    result.wall_ns = runtime::QueryTrace::NowNs() - wall_start;
    RecordQueryMetrics(result);
    MaybeLogSlowQuery(result, *info, params, rung, trace.get());
    result.trace = std::move(trace);
    return result;
  }

  /// No-tweaks overload (a default argument would need RunTweaks' member
  /// initializers before Impl is complete, which the compiler rejects).
  QueryResult ExecuteWith(const QueryParams& params,
                          const CancelToken* token) const {
    return ExecuteWith(params, token, RunTweaks());
  }

  QueryResult ExecuteWith(const QueryParams& params, const CancelToken* token,
                          const RunTweaks& tweaks) const {
    // Wall clock starts before admission: the latency a caller observes
    // includes the wait for a slot, so wall_ns must too.
    const uint64_t wall_start = runtime::QueryTrace::NowNs();
    // Every execution runs with a token even when the caller asked for no
    // deadline/cancel handle: budget trips and the exception backstop need
    // somewhere to record the failure.
    const CancelToken local;
    if (token == nullptr) token = &local;

    // The execution's span buffer: a ladder wrapper's shared trace wins;
    // otherwise one is allocated iff the handle was prepared with tracing.
    // kOff with no wrapper trace allocates NOTHING — every downstream
    // instrumentation point keys off this pointer staying null.
    std::shared_ptr<runtime::QueryTrace> trace = tweaks.trace;
    if (trace == nullptr && opt.trace != runtime::TraceLevel::kOff)
      trace = NewTrace();

    // Admission control bounds in-flight executions per scheduler — by
    // count and, when a memory budget is set, by estimated build bytes: a
    // query that would overcommit waits its turn (honoring the token's
    // deadline/cancel), one that could never fit is rejected with
    // kResourceExhausted. An overloaded server answers with backpressure
    // instead of queueing unboundedly.
    const size_t peak_seen = measured_peak.load(std::memory_order_relaxed);
    Scheduler::Admission admission = [&] {
      runtime::TraceScope wait(trace.get(), "sched", "admission.wait");
      return runtime::PoolFor(opt).scheduler().Admit(
          token, peak_seen != 0 ? peak_seen : est_bytes, opt.sched_stream);
    }();
    if (!admission.ok()) {
      return Finish(QueryResult::Failed(admission.status()), std::move(trace),
                    wall_start, params, tweaks.rung);
    }

    QueryOptions run_opt = opt;
    run_opt.cancel = token;
    run_opt.trace_sink = trace.get();
    if (tweaks.threads != 0)
      run_opt.threads = std::min(run_opt.threads, tweaks.threads);
    if (tweaks.vector_size != 0) run_opt.vector_size = tweaks.vector_size;
    // The per-execution memory ledger: every pool the engines bind charges
    // it, the governor aggregates across concurrent queries, and a breach
    // soft-trips the token with kResourceExhausted (see
    // runtime/resource_governor.h). Destroyed on every exit path, so the
    // process-wide accounting returns to baseline even after a failure.
    runtime::QueryLedger ledger(run_opt.memory_budget, token);
    ledger.SetTrace(trace.get());
    run_opt.ledger = &ledger;
    // Explicit per-query injector wins; otherwise the process-wide one
    // (VCQ_FAULT env) applies, so the stress harness reaches sessions it
    // never constructed.
    if (run_opt.fault == nullptr)
      run_opt.fault = runtime::FaultInjector::ProcessWide();
    // Spill-enabled runs (prepared with spill, or degraded onto rung 1+)
    // get a per-execution SpillManager and put the ledger in spill mode:
    // a budget overage then reads as live pressure the operators relieve
    // by staging state to disk, instead of a sticky kResourceExhausted
    // trip. Destroyed with this frame, which unlinks every spill file —
    // success or failure, the disk returns to baseline.
    std::optional<runtime::SpillManager> spill_mgr;
    if (tweaks.spill || run_opt.spill) {
      spill_mgr.emplace(run_opt.spill_limit, run_opt.fault, token);
      spill_mgr->SetTrace(trace.get());
      run_opt.spill_manager = &*spill_mgr;
      ledger.EnableSpillMode();
    }
    QueryResult result;
    try {
      switch (engine) {
        case Engine::kTyper:
          result = typer(*db, run_opt, params, typer_cache);
          break;
        case Engine::kTectorwise:
          result = tw->Run(run_opt, params);
          break;
        case Engine::kVolcano:
          result = sql->RunVolcano(run_opt, params);
          break;
      }
    } catch (...) {
      // Serial-phase backstop: parallel-region exceptions are already
      // contained by the scheduler (RunSlot), but an allocation failure in
      // a serial tail — result building, Volcano's materializing operators
      // — unwinds to here. Same translation, same contract: sticky trip,
      // empty result, no process abort.
      runtime::FailCurrentException(token);
    }
    // An interrupted run drained early: its rows are partial garbage, so
    // surface the status on an empty result instead. The spill volume is
    // stamped even on failures — introspection of how far a degraded run
    // got before the plug was pulled.
    const uint64_t spilled =
        spill_mgr.has_value() ? spill_mgr->spilled_bytes() : 0;
    if (token->Interrupted()) {
      QueryResult failed = QueryResult::Failed(token->status());
      failed.spilled_bytes = spilled;
      return Finish(std::move(failed), std::move(trace), wall_start, params,
                    tweaks.rung);
    }
    result.spilled_bytes = spilled;
    // Peak feedback from a clean run only — an interrupted run's peak is
    // partial and would under-charge the next admission.
    size_t prev = measured_peak.load(std::memory_order_relaxed);
    const size_t peak = ledger.peak();
    while (peak > prev && !measured_peak.compare_exchange_weak(
                              prev, peak, std::memory_order_relaxed)) {
    }
    return Finish(std::move(result), std::move(trace), wall_start, params,
                  tweaks.rung);
  }
};

PreparedQuery& PreparedQuery::Set(std::string_view name, int64_t value) {
  const ParamSpec* spec = FindSpec(*impl_->info, name);
  VCQ_CHECK_MSG(spec != nullptr,
                "unknown parameter for this query (see the QueryCatalog "
                "entry's ParamSpecs)");
  VCQ_CHECK_MSG(spec->type == runtime::ParamType::kInt,
                "parameter is not an integer; bind strings and ISO dates "
                "with the string overload");
  std::lock_guard<std::mutex> lock(impl_->params_mu);
  impl_->bound.SetInt(name, value);
  return *this;
}

PreparedQuery& PreparedQuery::Set(std::string_view name,
                                  std::string_view value) {
  const ParamSpec* spec = FindSpec(*impl_->info, name);
  VCQ_CHECK_MSG(spec != nullptr,
                "unknown parameter for this query (see the QueryCatalog "
                "entry's ParamSpecs)");
  VCQ_CHECK_MSG(spec->type != runtime::ParamType::kInt,
                "parameter is an integer; bind it with the int64 overload");
  std::lock_guard<std::mutex> lock(impl_->params_mu);
  if (spec->type == runtime::ParamType::kDate) {
    impl_->bound.SetDate(name, value);
  } else {
    impl_->bound.SetString(name, value);
  }
  return *this;
}

PreparedQuery& PreparedQuery::ResetParams() {
  std::lock_guard<std::mutex> lock(impl_->params_mu);
  impl_->bound = impl_->defaults;
  return *this;
}

QueryParams PreparedQuery::params() const {
  std::lock_guard<std::mutex> lock(impl_->params_mu);
  return impl_->bound;
}

QueryResult PreparedQuery::Execute() const {
  return impl_->ExecuteWith(params(), nullptr);
}

QueryResult PreparedQuery::Execute(const QueryParams& params) const {
  // Same contract as Set(): a binding this query never declared is a bug
  // at the caller, not something to silently run without.
  for (const std::string& name : params.Names()) {
    VCQ_CHECK_MSG(FindSpec(*impl_->info, name) != nullptr,
                  "unknown parameter for this query (see the QueryCatalog "
                  "entry's ParamSpecs)");
  }
  // Layer the explicit bindings over the defaults so partial binding works
  // and every parameter the engines read resolves (SQL queries have no
  // defaults: the explicit bindings must be complete).
  runtime::QueryParams merged = impl_->defaults;
  for (const ParamSpec& spec : impl_->info->params) {
    if (!params.Has(spec.name)) continue;
    switch (spec.type) {
      case runtime::ParamType::kInt:
        merged.SetInt(spec.name, params.Int(spec.name));
        break;
      case runtime::ParamType::kDate:
        merged.SetDateDays(spec.name, params.Date(spec.name));
        break;
      case runtime::ParamType::kString:
        merged.SetString(spec.name, params.Str(spec.name));
        break;
    }
  }
  return impl_->ExecuteWith(merged, nullptr);
}

QueryResult PreparedQuery::Execute(Deadline deadline) const {
  const CancelToken token(deadline);
  return impl_->ExecuteWith(params(), &token);
}

QueryResult PreparedQuery::Execute(std::chrono::milliseconds timeout) const {
  return Execute(CancelToken::Clock::now() + timeout);
}

QueryResult PreparedQuery::ExecuteWithRetry(const RetryPolicy& policy) const {
  VCQ_CHECK_MSG(policy.max_attempts >= 1, "RetryPolicy needs >= 1 attempt");
  // The overall budget covers attempts AND the sleeps between them: every
  // attempt runs against the same deadline and no sleep may outlive it, so
  // a bounded policy returns within total_timeout (plus one attempt's
  // morsel-poll granularity) no matter how the attempts fail.
  const bool bounded = policy.total_timeout.count() > 0;
  const PreparedQuery::Deadline deadline =
      runtime::CancelToken::Clock::now() + policy.total_timeout;
  std::chrono::milliseconds backoff = policy.initial_backoff;
  uint64_t rng = policy.jitter_seed;
  // One trace across the whole ladder (when the handle traces at all):
  // the attempts' spans and the backoff sleeps between them land in one
  // timeline, so the final result's trace shows the full retry story.
  Impl::RunTweaks tweaks;
  if (impl_->opt.trace != runtime::TraceLevel::kOff)
    tweaks.trace = impl_->NewTrace();
  QueryResult result;
  for (size_t attempt = 1;; ++attempt) {
    // Fresh CancelToken per attempt (local here or inside ExecuteWith), so
    // a previous attempt's sticky kResourceExhausted/kRejected never
    // carries over.
    if (bounded) {
      const CancelToken token(deadline);
      result = impl_->ExecuteWith(params(), &token, tweaks);
    } else {
      result = impl_->ExecuteWith(params(), nullptr, tweaks);
    }
    const bool transient = result.status == ExecStatus::kRejected ||
                           result.status == ExecStatus::kResourceExhausted;
    if (!transient || attempt >= policy.max_attempts) return result;
    // Deterministic jitter (SplitMix64 finalizer over the seeded counter):
    // scale the nominal backoff into [0.5, 1.0) so synchronized retries
    // de-correlate while a fixed seed replays the identical schedule.
    rng += 0x9e3779b97f4a7c15ull;
    uint64_t z = rng;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double frac = 0.5 + 0.5 * static_cast<double>(z >> 40) /
                                  static_cast<double>(uint64_t{1} << 24);
    auto delay = std::chrono::milliseconds(
        static_cast<int64_t>(static_cast<double>(backoff.count()) * frac));
    if (bounded) {
      // Clamp the sleep to the remaining budget; an exhausted budget means
      // this transient failure IS the final answer.
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     runtime::CancelToken::Clock::now());
      if (remaining.count() <= 0) return result;
      delay = std::min(delay, remaining);
    }
    if (delay.count() > 0) {
      runtime::TraceScope sleep_span(
          tweaks.trace.get(), "session",
          "retry.backoff#" + std::to_string(attempt));
      std::this_thread::sleep_for(delay);
    }
    backoff = std::min(policy.max_backoff, backoff * 2);
  }
}

QueryResult PreparedQuery::ExecuteWithDegradation(
    const DegradationPolicy& policy, Deadline deadline) const {
  // One trace across the descent (see ExecuteWithRetry): rung attempts
  // show up as "ladder.rung#<id>" brackets around their execution spans.
  std::shared_ptr<runtime::QueryTrace> ladder_trace;
  if (impl_->opt.trace != runtime::TraceLevel::kOff)
    ladder_trace = impl_->NewTrace();
  // Build the enabled rung sequence. Rung ids are fixed (0..3) regardless
  // of which rungs the policy enables, so degraded_rung always names the
  // same resource profile. Rung 2 is skipped for single-threaded prepares
  // (halving 1 thread changes nothing — it would burn an attempt).
  std::vector<Impl::RunTweaks> ladder;
  const auto add_rung = [&](uint8_t id, bool spill, size_t threads,
                            size_t vector_size) {
    Impl::RunTweaks tweaks;
    tweaks.spill = spill;
    tweaks.threads = threads;
    tweaks.vector_size = vector_size;
    tweaks.trace = ladder_trace;
    tweaks.rung = id;
    ladder.push_back(std::move(tweaks));
  };
  const size_t prepared_threads = impl_->opt.threads;
  const bool spill = policy.allow_spill;  // rungs below 1 keep spilling
  add_rung(0, false, 0, 0);
  if (policy.allow_spill) add_rung(1, true, 0, 0);
  if (policy.allow_reduced_threads && prepared_threads > 1)
    add_rung(2, spill, prepared_threads / 2, 0);
  if (policy.allow_small_vectors) add_rung(3, spill, 1, 256);
  const QueryParams bound = params();
  QueryResult result;
  for (const Impl::RunTweaks& tweaks : ladder) {
    const uint8_t id = tweaks.rung;
    // Fresh token per attempt (sticky trips must not carry over), same
    // deadline across the whole descent.
    const CancelToken token(deadline);
    {
      runtime::TraceScope attempt(ladder_trace.get(), "session",
                                  "ladder.rung#" + std::to_string(id));
      result = impl_->ExecuteWith(bound, &token, tweaks);
    }
    result.degraded_rung = id;
    impl_->rung_runs[id].fetch_add(1, std::memory_order_relaxed);
    CountRung(id, result.ok());
    if (result.ok()) {
      impl_->rung_ok[id].fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    // Only memory exhaustion descends the ladder; every other failure
    // (cancel, deadline, rejection, internal error) would fail the same
    // way one rung down — or already consumed the caller's budget.
    if (result.status != ExecStatus::kResourceExhausted) return result;
  }
  return result;  // out of rungs: the last (most degraded) failure
}

QueryResult PreparedQuery::ExecuteWithDegradation(
    const DegradationPolicy& policy) const {
  return ExecuteWithDegradation(policy, Deadline::max());
}

std::string PreparedQuery::ExplainDegradation() const {
  static constexpr const char* kRungNames[PreparedQuery::Impl::kRungs] = {
      "as prepared",
      "spill",
      "spill + half threads",
      "spill + 1 thread + small vectors",
  };
  std::string out = "degradation ladder:\n";
  for (size_t r = 0; r < PreparedQuery::Impl::kRungs; ++r) {
    const uint64_t runs =
        impl_->rung_runs[r].load(std::memory_order_relaxed);
    const uint64_t ok = impl_->rung_ok[r].load(std::memory_order_relaxed);
    out += "  rung " + std::to_string(r) + " (" + kRungNames[r] +
           "): runs=" + std::to_string(runs) + " ok=" + std::to_string(ok) +
           "\n";
  }
  return out;
}

namespace {

std::string FmtMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  return buf;
}

/// The Typer/Volcano half of EXPLAIN ANALYZE: fused pipelines have no
/// operator DAG, so the measured units are the parallel regions the
/// worker-pool facade spanned ("pipeline#k", tuples = the region's morsel
/// work hint) plus the per-site join-build times the engines recorded into
/// the trace's NodeTelemetry.
std::string FormatPipelineSummary(const runtime::QueryTrace& trace) {
  struct Agg {
    uint64_t busy_ns = 0;
    uint64_t tuples = 0;
    uint32_t workers = 0;
  };
  std::map<uint32_t, Agg> pipes;  // keyed by region ordinal
  Agg merge;                      // group-by merges (runtime/pre_aggregation.h)
  for (const runtime::TraceSpan& span : trace.Spans()) {
    if (span.name == "group.merge") {
      merge.busy_ns += span.duration_ns();
      merge.tuples += span.tuples;
      ++merge.workers;
    }
    if (std::string_view(span.cat) != "pipeline") continue;
    Agg& agg = pipes[span.site];
    agg.busy_ns += span.duration_ns();
    agg.tuples = std::max(agg.tuples, span.tuples);
    ++agg.workers;
  }
  std::string out;
  for (const auto& [region, agg] : pipes) {
    const double per_tuple =
        agg.tuples != 0
            ? static_cast<double>(agg.busy_ns) / static_cast<double>(agg.tuples)
            : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  pipeline#%u  workers=%u rows=%llu busy=%s (%.1f "
                  "ns/tuple)\n",
                  region, agg.workers,
                  static_cast<unsigned long long>(agg.tuples),
                  FmtMs(agg.busy_ns).c_str(), per_tuple);
    out += buf;
  }
  if (merge.workers > 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  group merge  workers=%u flushed=%llu busy=%s\n",
                  merge.workers, static_cast<unsigned long long>(merge.tuples),
                  FmtMs(merge.busy_ns).c_str());
    out += buf;
  }
  const runtime::NodeTelemetry& telemetry = trace.node_telemetry();
  for (uint32_t site = 0; site < runtime::NodeTelemetry::kMaxSites; ++site) {
    const uint64_t ns = telemetry.SpanNs(site);
    if (ns == 0) continue;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  build site#%u  tuples=%llu time=%s\n", site,
                  static_cast<unsigned long long>(telemetry.SpanTuples(site)),
                  FmtMs(ns).c_str());
    out += buf;
  }
  if (out.empty()) out = "  (no pipeline spans recorded)\n";
  return out;
}

}  // namespace

std::string PreparedQuery::ExplainAnalyze() const {
  // One real execution with tracing forced on via the tweaks trace — a
  // handle prepared with TraceLevel::kOff can still be analyzed, and the
  // prepared level still governs ordinary Execute() calls.
  Impl::RunTweaks tweaks;
  tweaks.trace = impl_->NewTrace();
  const CancelToken token;
  const QueryResult result = impl_->ExecuteWith(params(), &token, tweaks);
  const runtime::QueryTrace& trace = *tweaks.trace;

  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "EXPLAIN ANALYZE %s (%s): status=%s wall=%s rows=%zu\n",
                impl_->info->name.c_str(), EngineName(impl_->engine),
                runtime::StatusName(result.status), FmtMs(result.wall_ns).c_str(),
                result.rows.size());
  std::string out = buf;
  if (result.spilled_bytes != 0) {
    out += "  spilled=" + std::to_string(result.spilled_bytes / 1024) + "kB\n";
  }
  switch (impl_->engine) {
    case Engine::kTectorwise:
      out += tectorwise::ExplainAnalyzeTree(impl_->tw->plan(), trace,
                                            impl_->opt.vector_size);
      break;
    case Engine::kTyper:
    case Engine::kVolcano:
      out += FormatPipelineSummary(trace);
      break;
  }
  return out;
}

Engine PreparedQuery::engine() const { return impl_->engine; }
Query PreparedQuery::query() const {
  VCQ_CHECK_MSG(!impl_->is_sql,
                "SQL-prepared queries have no catalog Query id — use "
                "info() / is_sql() to introspect them");
  return impl_->query;
}
bool PreparedQuery::is_sql() const { return impl_->is_sql; }
const QueryInfo& PreparedQuery::info() const { return *impl_->info; }
const QueryOptions& PreparedQuery::options() const { return impl_->opt; }

size_t PreparedQuery::measured_peak_bytes() const {
  return impl_->measured_peak.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ExecutionHandle
// ---------------------------------------------------------------------------

struct ExecutionHandle::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool taken = false;  // the result was surrendered to some handle copy
  QueryResult result;
  /// The execution's cancellation token; kept in the shared State so any
  /// handle copy can Cancel() while the coordinator runs.
  std::shared_ptr<CancelToken> token;
};

QueryResult ExecutionHandle::Wait() {
  VCQ_CHECK_MSG(state_ != nullptr, "ExecutionHandle is empty");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  // The taken flag lives in the shared State so a second Wait — through
  // this handle or a copy — fails loudly instead of returning the
  // moved-from (empty) result. state_ itself is deliberately NOT reset:
  // Cancel()/Done() are documented safe from any thread, and clearing the
  // member here would race their concurrent reads of it.
  VCQ_CHECK_MSG(!state_->taken, "ExecutionHandle already waited on");
  state_->taken = true;
  return std::move(state_->result);
}

bool ExecutionHandle::Done() const {
  VCQ_CHECK_MSG(state_ != nullptr, "ExecutionHandle is empty");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void ExecutionHandle::Cancel() {
  VCQ_CHECK_MSG(state_ != nullptr, "ExecutionHandle is empty");
  state_->token->Cancel();
}

ExecutionHandle PreparedQuery::StartAsync(
    std::shared_ptr<CancelToken> token) const {
  ExecutionHandle handle;
  handle.state_ = std::make_shared<ExecutionHandle::State>();
  handle.state_->token = std::move(token);
  // Snapshot the bindings now: the async execution reflects the handle's
  // state at submit time, not at whatever point the pool schedules it.
  QueryParams snapshot = params();
  runtime::PoolFor(impl_->opt)
      .Submit([impl = impl_, state = handle.state_,
               snapshot = std::move(snapshot)] {
        QueryResult result = impl->ExecuteWith(snapshot, state->token.get());
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->result = std::move(result);
          state->done = true;
        }
        state->cv.notify_all();
      });
  return handle;
}

ExecutionHandle PreparedQuery::ExecuteAsync() const {
  return StartAsync(std::make_shared<CancelToken>());
}

ExecutionHandle PreparedQuery::ExecuteAsync(Deadline deadline) const {
  return StartAsync(std::make_shared<CancelToken>(deadline));
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(const Database& db)
    : Session(db, runtime::WorkerPool::Global()) {}

Session::Session(const Database& db, runtime::WorkerPool& pool)
    : db_(&db), pool_(&pool) {
  stream_ = pool_->scheduler().CreateStream();
}

Session::~Session() {
  // Prepared queries may outlive the session: their stale stream id then
  // falls back to the scheduler's default stream (see Scheduler). Clear
  // the admission quota too — its entry is keyed by this id and would
  // otherwise outlive the session it throttled.
  pool_->scheduler().SetStreamQuota(stream_, 0, 0);
  pool_->scheduler().DestroyStream(stream_);
}

Session& Session::SetWeight(double weight) {
  pool_->scheduler().SetStreamWeight(stream_, weight);
  return *this;
}

Session& Session::SetQuota(size_t max_inflight, size_t max_bytes) {
  pool_->scheduler().SetStreamQuota(stream_, max_inflight, max_bytes);
  return *this;
}

double Session::weight() const {
  return pool_->scheduler().StreamWeight(stream_);
}

PreparedQuery Session::Prepare(Engine engine, Query query,
                               const QueryOptions& options) const {
  auto impl = std::make_shared<PreparedQuery::Impl>();
  impl->db = db_;
  impl->engine = engine;
  impl->query = query;
  impl->opt = StampSessionOptions(options, pool_, stream_);
  impl->info = &CatalogEntry(query);
  impl->defaults = DefaultParams(query);
  impl->bound = impl->defaults;
  // Stamped once: the footprint depends only on the database and query, and
  // Prepare is the only place with both in hand before the hot path.
  impl->est_bytes = EstimatedBuildBytes(*db_, query);
  switch (engine) {
    case Engine::kTyper: impl->typer = TyperRunner(query); break;
    case Engine::kTectorwise:
      impl->tw.emplace(tectorwise::Prepare(*db_, impl->info->name, impl->opt));
      // Fail query/catalog drift here, not at the first Execute.
      ValidatePlanParams(impl->tw->plan(), *impl->info);
      break;
    case Engine::kVolcano: {
      // Volcano has no hand-built plans: it runs the query's reference SQL
      // text (same $names as the catalog's ParamSpecs) lowered onto the
      // interpreter, exactly as PrepareSql(text, kVolcano) would.
      const char* text = sql::SqlTextFor(impl->info->name);
      VCQ_CHECK_MSG(text != nullptr, "catalog query has no reference SQL");
      impl->CompileSql(SqlCatalog(), text);
      break;
    }
  }
  PreparedQuery prepared;
  prepared.impl_ = std::move(impl);
  return prepared;
}

std::shared_ptr<const sql::Catalog> Session::SqlCatalog() const {
  std::lock_guard<std::mutex> lock(sql_mu_);
  if (sql_catalog_ == nullptr) sql_catalog_ = sql::MakeCatalog(*db_);
  return sql_catalog_;
}

PreparedQuery Session::PrepareSql(std::string_view sql_text, Engine engine,
                                  const QueryOptions& options) const {
  VCQ_CHECK_MSG(engine != Engine::kTyper,
                "SQL lowering targets Tectorwise and Volcano; Typer "
                "pipelines are ahead-of-time compiled per catalog query");
  auto impl = std::make_shared<PreparedQuery::Impl>();
  impl->db = db_;
  impl->engine = engine;
  impl->is_sql = true;
  impl->opt = StampSessionOptions(options, pool_, stream_);
  std::shared_ptr<const sql::Catalog> catalog = SqlCatalog();
  impl->CompileSql(catalog, sql_text);
  const sql::CompiledQuery& compiled = *impl->sql;
  impl->owned_info = SqlQueryInfo(compiled, *catalog);
  impl->info = &impl->owned_info;
  // No spec defaults: impl->defaults / impl->bound stay empty until Set.
  impl->est_bytes = SqlEstimatedBuildBytes(compiled.plan());
  if (engine == Engine::kTectorwise) {
    runtime::TraceScope lower(impl->prepare_trace.get(), "sql", "sql.lower");
    impl->tw.emplace(compiled.LowerTectorwise());
    // The binder declared every $param the plan reads, but run the same
    // drift cross-check Prepare does — it guards the lowering too.
    ValidatePlanParams(impl->tw->plan(), impl->owned_info);
  }
  PreparedQuery prepared;
  prepared.impl_ = std::move(impl);
  return prepared;
}

std::string Session::MetricsSnapshot() { return metrics::RenderJson(); }

std::string Session::ExplainSql(std::string_view sql_text) const {
  sql::CompileResult compiled = sql::Compile(SqlCatalog(), sql_text);
  VCQ_CHECK_MSG(compiled.ok(), compiled.error->Format().c_str());
  return sql::Explain(*compiled.query);
}

}  // namespace vcq
