#ifndef VCQ_RUNTIME_OPTIONS_H_
#define VCQ_RUNTIME_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace vcq::runtime {

class CancelToken;
class FaultInjector;
class QueryLedger;
class QueryTrace;
class SpillManager;
class WorkerPool;

/// How much per-execution tracing the run records (see runtime/trace.h):
///   kOff    no spans; every instrumentation point is a null check.
///   kSpans  full span capture — SQL stages, admission wait, gang
///           dispatch, per-pipeline/per-operator execution, spill I/O,
///           governor trips, retry/degradation attempts — exported as
///           Chrome-tracing JSON and EXPLAIN ANALYZE.
enum class TraceLevel : uint8_t { kOff, kSpans };

/// Per-run execution settings, honored by all engines where meaningful.
struct QueryOptions {
  /// Worker threads (morsel-driven parallelism, paper §6).
  size_t threads = 1;
  /// Worker pool the run executes on; nullptr means the process-global
  /// pool. vcq::Session stamps its pool here at Prepare time so every
  /// execution of the session shares one persistent set of threads (see
  /// runtime::PoolFor in worker_pool.h).
  WorkerPool* pool = nullptr;
  /// Bound on the gang width of this query's parallel regions: at Prepare
  /// time vcq::Session clamps `threads` to
  /// min(pool's scheduler capacity + 1, scheduler_threads) — the caller
  /// acts as worker 0 — so regions always fit the fixed gang worker set
  /// and the pool's worker thread count stays bounded no matter how many
  /// prepared queries are in flight (see runtime::Scheduler).
  /// 0 = no per-query cap beyond the pool's.
  size_t scheduler_threads = 0;
  /// Scheduling stream this run's regions are charged to (weighted fair
  /// queueing between sessions; see Scheduler::CreateStream). Stamped by
  /// vcq::Session at Prepare time; 0 = the shared default stream.
  uint64_t sched_stream = 0;
  /// Cooperative cancellation/deadline token for this run; all engines
  /// poll it at morsel boundaries (see runtime/cancel.h). Stamped per
  /// execution by vcq::PreparedQuery; nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
  /// Per-query memory budget in bytes for the run's pools and build
  /// arenas; crossing it trips `cancel` with kResourceExhausted and the
  /// query drains (see runtime/resource_governor.h for the soft-trip
  /// model). 0 = unlimited. Queries also count against the process-wide
  /// ResourceGovernor budget regardless of this setting.
  size_t memory_budget = 0;
  /// The execution's memory ledger; created per run by vcq::PreparedQuery
  /// (from memory_budget) and bound to every MemPool/JoinBuild the run
  /// creates. nullptr = ungoverned (standalone engine calls).
  QueryLedger* ledger = nullptr;
  /// Degrade instead of dying: when set, a memory-budget overage becomes
  /// spill PRESSURE instead of a kResourceExhausted trip — the ledger's
  /// UnderPressure() signal — and spill-capable operators (both engines'
  /// join-build materialize phases and flushed group-by row blocks) evict
  /// state to temp files Grace-style until usage drops back under budget
  /// (see runtime/spill.h). Results stay byte-identical to in-memory runs.
  bool spill = false;
  /// Total spilled-bytes bound for one execution when `spill` is set
  /// (0 = VCQ_SPILL_LIMIT env, else unlimited); exceeding it fails the run
  /// with kResourceExhausted — disk is a budget too.
  size_t spill_limit = 0;
  /// The execution's spill state; created per run by vcq::PreparedQuery
  /// when `spill` is set and passed to the operators. nullptr = spill
  /// disabled (standalone engine calls can stamp their own).
  SpillManager* spill_manager = nullptr;
  /// Fault injector for this run (tests); engines call FaultHit at every
  /// allocation and barrier site. nullptr = no injection. When unset,
  /// vcq::PreparedQuery falls back to FaultInjector::ProcessWide() so the
  /// env-driven stress harness reaches release binaries.
  FaultInjector* fault = nullptr;
  /// Tectorwise vector size in tuples (Fig. 5 sweep); ignored by Typer and
  /// Volcano.
  size_t vector_size = 1024;
  /// Use AVX-512 primitive variants where available (paper §5);
  /// Tectorwise only.
  bool simd = false;
  /// Morsel size in tuples for table scans.
  size_t morsel_grain = 16384;
  /// Micro-adaptive ordered aggregation (paper §8.4, VectorWise's
  /// optimization): per vector, partition input into per-group selection
  /// vectors and keep partial aggregates in registers when the group count
  /// is small; falls back to hash aggregation otherwise. Tectorwise Q1
  /// only.
  bool adaptive = false;
  /// Requested trace level. vcq::Session honors it by allocating a
  /// QueryTrace per execution (stamped into QueryResult::trace on
  /// success and failure); standalone engine calls must also set
  /// `trace_sink` — the level alone allocates nothing.
  TraceLevel trace = TraceLevel::kOff;
  /// Span sink for this execution (see runtime/trace.h). Stamped per run
  /// by vcq::PreparedQuery when `trace` != kOff; standalone callers may
  /// stamp their own. The join-build protocol of both engines records its
  /// per-site build spans into trace_sink->node_telemetry(). nullptr = no
  /// span capture and no build telemetry.
  QueryTrace* trace_sink = nullptr;
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_OPTIONS_H_
