#include "benchutil/bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "api/query_catalog.h"
#include "common/env_util.h"

namespace vcq::benchutil {

namespace {

double Now() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double Measurement::CyclesPerTuple() const {
  return counters.cycles / static_cast<double>(tuples);
}

double Measurement::InstructionsPerTuple() const {
  return counters.instructions / static_cast<double>(tuples);
}

/// Median timing over `reps` runs; the Measurement still lacks the
/// instrumented-run telemetry when this returns.
Measurement MeasureTimes(const std::function<void()>& fn, int reps) {
  Measurement m;
  std::vector<double> times;
  times.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const double start = Now();
    fn();
    times.push_back(Now() - start);
  }
  std::sort(times.begin(), times.end());
  m.ms = times[times.size() / 2];
  return m;
}

Measurement Measure(const std::function<void()>& fn, int reps) {
  Measurement m = MeasureTimes(fn, reps);
  runtime::PerfCounters counters;
  counters.Start();
  fn();
  m.counters = counters.Stop();
  return m;
}

Measurement MeasureTraced(
    const std::function<void()>& fn,
    const std::function<std::shared_ptr<const runtime::QueryTrace>()>&
        traced_fn,
    size_t vector_size, int reps) {
  Measurement m = MeasureTimes(fn, reps);
  runtime::PerfCounters counters;
  counters.Start();
  const double instr_start = Now();
  const std::shared_ptr<const runtime::QueryTrace> trace = traced_fn();
  const double instr_ms = Now() - instr_start;
  m.counters = counters.Stop();
  if (trace == nullptr) {
    m.avg_density = std::numeric_limits<double>::quiet_NaN();
    m.probe_ms = instr_ms;
    return m;
  }
  // Build span: the per-site join-build wall spans the build protocol
  // recorded into the trace's NodeTelemetry — per-run state, so two
  // benches (or a concurrent server) cannot cross-contaminate each other.
  uint64_t build_ns = 0;
  for (uint32_t site = 0; site < runtime::NodeTelemetry::kMaxSites; ++site)
    build_ns += trace->node_telemetry().SpanNs(site);
  m.build_ms = static_cast<double>(build_ns) / 1e6;
  m.probe_ms = std::max(0.0, instr_ms - m.build_ms);
  // Density: output rows per batch slot across every traced operator
  // (Tectorwise's TracedOperator aggregates; none recorded = NaN, e.g.
  // Typer's fused pipelines have no vector operators to measure).
  uint64_t rows = 0;
  uint64_t batches = 0;
  for (uint32_t site = 0; site < runtime::QueryTrace::kMaxSites; ++site) {
    const auto stats = trace->OperatorAt(site);
    rows += stats.rows;
    batches += stats.batches;
  }
  m.batches = static_cast<double>(batches);
  m.avg_density =
      batches != 0 && vector_size != 0
          ? static_cast<double>(rows) /
                (static_cast<double>(batches) * static_cast<double>(vector_size))
          : std::numeric_limits<double>::quiet_NaN();
  return m;
}

size_t TuplesScanned(const runtime::Database& db, Query query) {
  return ScannedTuples(db, query);
}

Measurement MeasureQuery(const runtime::Database& db, Engine engine,
                         Query query, const runtime::QueryOptions& opt,
                         int reps) {
  // Timed reps run exactly as configured; the instrumented rep re-runs
  // with tracing on and mines the trace the session stamps into the
  // result, so the reported split/density come from the unified
  // recording path, not from process-global counters.
  Measurement m = MeasureTraced(
      [&] { RunQuery(db, engine, query, opt); },
      [&] {
        runtime::QueryOptions traced = opt;
        traced.trace = runtime::TraceLevel::kSpans;
        return RunQuery(db, engine, query, traced).trace;
      },
      opt.vector_size, reps);
  m.tuples = TuplesScanned(db, query);
  return m;
}

void PrintHeader(const std::string& title, const std::string& paper_setup,
                 const std::string& this_setup) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper setup: %s\n", paper_setup.c_str());
  std::printf("this run:    %s\n", this_setup.c_str());
  std::printf("==============================================================="
              "=================\n");
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  auto emit = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c)
      std::printf("%s%-*s", c ? "  " : "", static_cast<int>(widths[c]),
                  cells[c].c_str());
    std::printf("\n");
  };
  emit(columns_);
  size_t total = columns_.size() >= 1 ? 2 * (columns_.size() - 1) : 0;
  for (size_t w : widths) total += w;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) emit(row);
}

std::string Fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string FmtCounter(double v, int decimals) {
  if (std::isnan(v)) return "n/a";
  return Fmt(v, decimals);
}

double EnvSf(double default_sf) {
  if (Quick()) default_sf = std::min(default_sf, 0.05);
  return EnvDouble("VCQ_SF", default_sf);
}

int EnvReps(int default_reps) {
  if (Quick()) default_reps = 1;
  return static_cast<int>(EnvInt("VCQ_REPS", default_reps));
}

size_t EnvThreads(size_t default_threads) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t v = static_cast<size_t>(
      EnvInt("VCQ_THREADS", static_cast<int64_t>(
                                default_threads ? default_threads : hw)));
  return std::max<size_t>(1, v);
}

bool Quick() { return EnvFlag("VCQ_QUICK"); }

}  // namespace vcq::benchutil
