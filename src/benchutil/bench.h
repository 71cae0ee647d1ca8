#ifndef VCQ_BENCHUTIL_BENCH_H_
#define VCQ_BENCHUTIL_BENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/vcq.h"
#include "runtime/perf_counters.h"
#include "runtime/trace.h"

// Measurement harness shared by all bench binaries (one binary per paper
// table/figure; see DESIGN.md §3). Configuration via environment:
//   VCQ_SF       scale factor            (default per bench)
//   VCQ_REPS     repetitions per cell    (median reported)
//   VCQ_THREADS  max worker threads
//   VCQ_QUICK=1  CI-sized run
// Counter columns print "n/a" when the kernel denies perf events. Batch
// and build telemetry come only from a traced run's QueryTrace
// (MeasureTraced/MeasureQuery); no process-global counter is read.

namespace vcq::benchutil {

struct Measurement {
  double ms = 0;                        // median wall time
  runtime::PerfCounters::Values counters;  // from the median-adjacent run
  size_t tuples = 0;                    // normalization base (paper §3.4)

  // Batch-density telemetry from the instrumented run of MeasureTraced/
  // MeasureQuery: avg_density is output rows per batch slot across every
  // traced Tectorwise operator — the same per-site aggregates EXPLAIN
  // ANALYZE prints — and batches counts the non-empty batches those
  // operators emitted; NaN/0 when the run recorded no operator spans
  // (Typer's fused pipelines).
  double avg_density = 0;
  double batches = 0;

  // Build/probe phase split from the instrumented run: build_ms sums the
  // per-site join-build insert-protocol wall spans (one span per hash
  // table, sizing barrier to final barrier — spans of distinct builds
  // never overlap, so nested build-side joins are not double-counted, and
  // materialize-phase skew is excluded); probe_ms is the rest of that run
  // — for queries without hash joins build_ms is 0 and probe_ms is simply
  // the whole run. Both come from the instrumented run's QueryTrace
  // NodeTelemetry (the same recording ExplainAnalyze reads).
  double build_ms = 0;
  double probe_ms = 0;

  double CyclesPerTuple() const;
  double InstructionsPerTuple() const;
};

/// Runs `fn` reps times, returns the median time plus the hardware
/// counters of one additional run. Records no batch or build telemetry:
/// use MeasureTraced for that.
Measurement Measure(const std::function<void()>& fn, int reps);

/// The unified observability path (runtime/trace.h): timing reps run `fn`
/// untouched; the one instrumented run invokes `traced_fn`, which executes
/// traced and returns the run's QueryTrace (QueryResult::trace for session
/// paths, a caller-owned sink for direct engine calls) — build_ms/
/// probe_ms/density are derived from its spans, so benches and production
/// (EXPLAIN ANALYZE) report from one recording path. A null
/// trace (failed run) leaves the telemetry columns at their zero/NaN
/// defaults. `vector_size` is the density denominator per batch.
Measurement MeasureTraced(
    const std::function<void()>& fn,
    const std::function<std::shared_ptr<const runtime::QueryTrace>()>&
        traced_fn,
    size_t vector_size, int reps);

/// Measures one query end to end. `tuples` normalization = sum of scanned
/// table cardinalities for that query (paper §3.4).
Measurement MeasureQuery(const runtime::Database& db, Engine engine,
                         Query query, const runtime::QueryOptions& opt,
                         int reps);

/// Sum of base-table cardinalities scanned by `query` (paper §3.4
/// normalization).
size_t TuplesScanned(const runtime::Database& db, Query query);

/// Prints the standard bench banner: what paper artifact this reproduces,
/// the paper's setup, and this run's setup.
void PrintHeader(const std::string& title, const std::string& paper_setup,
                 const std::string& this_setup);

/// Minimal fixed-width table printer for paper-style output.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats helpers.
std::string Fmt(double v, int decimals = 1);
std::string FmtCounter(double v, int decimals = 1);  // "n/a" for NaN

double EnvSf(double default_sf);
int EnvReps(int default_reps);
size_t EnvThreads(size_t default_threads);
bool Quick();

}  // namespace vcq::benchutil

#endif  // VCQ_BENCHUTIL_BENCH_H_
