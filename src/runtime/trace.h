#ifndef VCQ_RUNTIME_TRACE_H_
#define VCQ_RUNTIME_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

// Per-execution trace spans — the unified observability substrate.
//
// One QueryTrace is the span buffer of one execution (or of one
// retry/degradation LADDER of executions: the wrappers share a single
// trace across attempts so backoff sleeps and rung descents are visible
// in context). The session owns the trace and stamps it into
// QueryResult::trace on success AND failure; standalone engine callers
// can hand their own sink in through QueryOptions::trace_sink.
//
// Recording model, chosen for near-zero disabled cost and TSan-clean
// enabled cost:
//   * LANE spans (AddLaneSpan): one lock-free single-writer vector per
//     worker lane. Within one execution, parallel regions run
//     sequentially and each worker id maps to exactly one lane, so a
//     lane has one writer at any instant — no atomics on the hot path.
//     Per-operator and per-pipeline spans go here.
//   * EVENT spans (AddEvent): a mutex-guarded vector for low-frequency
//     cross-thread spans — SQL compile stages, admission wait, gang
//     dispatch, spill I/O, governor trips, retry backoffs, rung
//     attempts. Rendered on a dedicated "session" lane (kSessionLane).
//   * SITE aggregates (RecordOperator): fixed-size atomic {ns, rows,
//     batches} per plan-node index, powering ExplainAnalyze without a
//     post-run span scan.
// All spans, the join-build spans included, use one monotonic clock
// (NowNs — steady_clock), so Chrome's timeline nests correctly.
//
// Per-site build telemetry: the trace owns the NodeTelemetry the
// join-build protocol (runtime/hashmap.h) records into. Whenever a run
// has a trace sink (QueryOptions::trace_sink), both engines' join builds
// record their per-site build span there, once; EXPLAIN ANALYZE's
// build/probe split and the benchmark harnesses read it back through
// node_telemetry(). There is no other consumer and no separate option:
// an untraced run records nothing and allocates nothing
// (QueryOptions::trace == kOff costs a null check at every
// instrumentation point).
//
// Export: ToChromeJson() renders the chrome://tracing (Perfetto) JSON
// object format; PreparedQuery::ExplainAnalyze() renders the compact
// annotated text tree (api/session.h, tectorwise::ExplainAnalyzeTree).

namespace vcq::runtime {

/// Per-execution, per-site join-build wall spans, embedded in QueryTrace.
/// Sites are plan-node indices (Tectorwise) or build ordinals (Typer),
/// each accumulating {ns, tuples}. Fixed-size atomic slots: recording
/// from parallel workers is lock-free and allocation-free.
class NodeTelemetry {
 public:
  static constexpr size_t kMaxSites = 64;

  void RecordSpan(uint32_t site, uint64_t ns, uint64_t tuples) {
    if (site >= kMaxSites) return;  // out-of-range sites go unrecorded
    sites_[site].ns.fetch_add(ns, std::memory_order_relaxed);
    sites_[site].tuples.fetch_add(tuples, std::memory_order_relaxed);
  }

  bool HasSpan(uint32_t site) const {
    return site < kMaxSites &&
           sites_[site].tuples.load(std::memory_order_relaxed) > 0;
  }

  /// Accumulated wall ns at `site` (0 when nothing was recorded) — read
  /// by EXPLAIN ANALYZE's build/probe split and the benchmark harnesses.
  uint64_t SpanNs(uint32_t site) const {
    return site < kMaxSites ? sites_[site].ns.load(std::memory_order_relaxed)
                            : 0;
  }
  /// Accumulated tuples at `site`.
  uint64_t SpanTuples(uint32_t site) const {
    return site < kMaxSites
               ? sites_[site].tuples.load(std::memory_order_relaxed)
               : 0;
  }

 private:
  struct Site {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> tuples{0};
  };
  Site sites_[kMaxSites];
};

/// One measured interval. `cat` must point at static storage ("operator",
/// "pipeline", "sched", "spill", "sql", "session", ...). `tuples` carries
/// rows for operator/pipeline spans and BYTES for spill spans; `calls`
/// counts operator Next() batches (0 elsewhere). `site` is the plan-node
/// index (Tectorwise) or build/region ordinal (Typer), kNoSite when the
/// span is not node-scoped.
struct TraceSpan {
  const char* cat = "";
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t lane = 0;
  uint32_t site = UINT32_MAX;
  uint64_t tuples = 0;
  uint64_t calls = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Span buffer of one execution (or one retry/degradation ladder).
/// Thread-safety contract: AddLaneSpan(lane) has one writer per lane at
/// any instant (worker id == lane within a gang region); AddEvent is
/// fully thread-safe; readers (Spans/ToChromeJson/...) run only after
/// the execution finished.
class QueryTrace {
 public:
  static constexpr size_t kMaxLanes = 64;
  /// Rendered lane for cross-thread event spans.
  static constexpr uint32_t kSessionLane = kMaxLanes;
  static constexpr uint32_t kNoSite = UINT32_MAX;
  static constexpr size_t kMaxSites = NodeTelemetry::kMaxSites;

  /// Monotonic nanoseconds — the one clock every span uses.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Lock-free per-worker recording (single writer per lane). Lanes past
  /// kMaxLanes fall back to AddEvent.
  void AddLaneSpan(uint32_t lane, TraceSpan span);

  /// Thread-safe low-frequency recording (mutex). The span is rendered
  /// on kSessionLane unless it carries an explicit lane.
  void AddEvent(TraceSpan span);

  /// Zero-length marker event at NowNs() (e.g. a governor trip).
  void AddInstant(const char* cat, std::string name,
                  uint32_t site = kNoSite);

  /// Ordinal of the next parallel region ("pipeline#<k>").
  uint32_t BeginRegion() {
    return regions_.fetch_add(1, std::memory_order_relaxed);
  }
  uint32_t regions() const {
    return regions_.load(std::memory_order_relaxed);
  }

  /// Per-plan-node aggregate across workers: inclusive busy ns (sum of
  /// Next() durations), output rows, non-empty batches.
  void RecordOperator(uint32_t site, uint64_t ns, uint64_t rows,
                      uint64_t batches);
  struct OperatorStats {
    uint64_t ns = 0;
    uint64_t rows = 0;
    uint64_t batches = 0;
  };
  OperatorStats OperatorAt(uint32_t site) const;
  bool HasOperator(uint32_t site) const;

  /// The embedded per-site join-build telemetry (build ns/tuples per
  /// site — see runtime/hashmap.h).
  NodeTelemetry& node_telemetry() { return telemetry_; }
  const NodeTelemetry& node_telemetry() const { return telemetry_; }

  /// Every span (lanes + events), sorted by start time.
  std::vector<TraceSpan> Spans() const;
  size_t span_count() const;

  /// Total spill bytes attributed to plan-node `site` (sum of
  /// "spill.write" event spans recorded with that site).
  uint64_t SpillBytesAt(uint32_t site) const;

  /// Copies every span of `other` into this trace's event buffer — used
  /// to prepend the prepare-time SQL stage spans to an execution trace.
  void Append(const QueryTrace& other);

  /// chrome://tracing (Perfetto) JSON: {"traceEvents":[{"ph":"X",...}]}.
  /// Timestamps are microseconds on the steady-clock epoch; each lane
  /// renders as one tid.
  std::string ToChromeJson() const;

 private:
  struct SiteAgg {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> batches{0};
  };

  std::array<std::vector<TraceSpan>, kMaxLanes> lanes_;
  std::array<SiteAgg, kMaxSites> ops_{};
  NodeTelemetry telemetry_;
  std::atomic<uint32_t> regions_{0};

  mutable std::mutex mu_;
  std::vector<TraceSpan> events_;  // guarded by mu_
};

/// RAII event span; a nullptr trace makes every member a no-op, so call
/// sites stay branch-light when tracing is off.
class TraceScope {
 public:
  TraceScope(QueryTrace* trace, const char* cat, std::string name,
             uint32_t site = QueryTrace::kNoSite)
      : trace_(trace) {
    if (trace_ == nullptr) return;
    span_.cat = cat;
    span_.name = std::move(name);
    span_.site = site;
    span_.start_ns = QueryTrace::NowNs();
  }
  ~TraceScope() {
    if (trace_ == nullptr) return;
    span_.end_ns = QueryTrace::NowNs();
    trace_->AddEvent(std::move(span_));
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void SetTuples(uint64_t tuples) { span_.tuples = tuples; }

 private:
  QueryTrace* trace_;
  TraceSpan span_;
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_TRACE_H_
