// vcq_perfbench: the repository benchmark harness.
//
//   vcq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--scale <sf>] [--plant q9-tw]
//
// Spill files go to VCQ_SPILL_DIR (else TMPDIR, else /tmp). --scale and
// --plant are the self-test's knobs (perfbench/selftest.py).
//
// Sets the workload up through the public vcq::Session API (timed, three
// or more times, median reported as setup_s), runs a seeded closed-loop request
// sequence with tracing off and checks every result against the warm-up
// references. --trace 1 spends half the time on that untraced sequence and
// then replays it with TraceLevel::kSpans handles; the per-layer metrics
// come from timing public calls and from the spans the library records.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is nonzero when any result is wrong or memory, governor
// bytes or spill files do not return to their baseline.

#include <dirent.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "api/query_catalog.h"
#include "harness/stats.h"
#include "harness/workload.h"
#include "runtime/mem_pool.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/trace.h"
#include "sql/reference_queries.h"

namespace perfbench {
namespace {

using vcq::Engine;
using vcq::runtime::ExecStatus;
using vcq::runtime::QueryResult;
using vcq::runtime::QueryTrace;
using vcq::runtime::TraceSpan;
using vcq::tectorwise::NodeKind;

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Overrides overrides;
};

/// One executed request.
struct Sample {
  size_t cell = 0;
  size_t binding = 0;
  uint64_t t0 = 0;  // QueryTrace clock, around the timed public calls
  uint64_t t1 = 0;
  uint64_t exec_ns = 0;  // the Execute part (kSql excludes PrepareSql)
  uint64_t hand_ns = 0;  // paired hand-built execution (kSql, untraced)
  bool hand_ran = false;
  bool hand_correct = false;
  ExecStatus status = ExecStatus::kOk;
  bool correct = false;
  uint8_t rung = 0;
  uint64_t spilled = 0;
  std::shared_ptr<const QueryTrace> trace;

  double ms() const { return static_cast<double>(t1 - t0) / 1e6; }
  bool good() const { return status == ExecStatus::kOk && correct; }
};

struct Pass {
  std::vector<Sample> samples;  // in request order
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note = "";  // printed after the value, not in the JSON
};

// ---------------------------------------------------------------------------
// Running requests

/// The hand-built Tectorwise execution paired with a SQL request.
void RunHand(const Cell& cell, size_t binding, Sample& s) {
  const uint64_t h0 = QueryTrace::NowNs();
  const QueryResult hand = cell.hand.Execute(cell.bindings[binding].params);
  s.hand_ns = QueryTrace::NowNs() - h0;
  s.hand_ran = true;
  s.hand_correct = hand.ok() && hand == cell.refs[binding];
}

Sample RunRequest(World& world, const Request& req, bool traced,
                  bool pair_hand, size_t k) {
  Cell& cell = world.cells[req.cell];
  const Binding& binding = cell.bindings[req.binding];
  Sample s;
  s.cell = req.cell;
  s.binding = req.binding;
  QueryResult result;
  if (cell.mode == Mode::kSql && pair_hand && k % 2 == 1) {
    // Alternate which plan runs first so drift hits both sides equally.
    RunHand(cell, req.binding, s);
  }
  s.t0 = QueryTrace::NowNs();
  switch (cell.mode) {
    case Mode::kExecute: {
      const vcq::PreparedQuery& q = traced ? cell.traced : cell.handle;
      result = q.Execute(binding.params);
      s.exec_ns = QueryTrace::NowNs() - s.t0;
      break;
    }
    case Mode::kDegradation: {
      vcq::PreparedQuery& q = traced ? cell.traced : cell.handle;
      Bind(q, binding);
      result = q.ExecuteWithDegradation();
      s.exec_ns = QueryTrace::NowNs() - s.t0;
      break;
    }
    case Mode::kSql: {
      vcq::runtime::QueryOptions opt = cell.options;
      opt.trace = traced ? vcq::runtime::TraceLevel::kSpans
                         : vcq::runtime::TraceLevel::kOff;
      vcq::PreparedQuery q = cell.session->PrepareSql(
          vcq::sql::SqlTextFor(cell.query), Engine::kTectorwise, opt);
      Bind(q, binding);
      const uint64_t e0 = QueryTrace::NowNs();
      result = q.Execute();
      s.exec_ns = QueryTrace::NowNs() - e0;
      break;
    }
  }
  s.t1 = QueryTrace::NowNs();
  if (cell.mode == Mode::kSql && pair_hand && k % 2 == 0) {
    RunHand(cell, req.binding, s);
  }
  s.status = result.status;
  s.correct = result.ok() && result == cell.refs[req.binding];
  s.rung = result.degraded_rung;
  s.spilled = result.spilled_bytes;
  s.trace = result.trace;
  return s;
}

/// Runs the closed loop in whole rounds until `seconds` have passed — or,
/// when `count` is nonzero, for exactly `count` requests (the traced replay
/// of an untraced pass). Whole rounds keep the request multiset the same
/// on every seed, so a run may overshoot `seconds` by up to one round.
Pass RunPass(World& world, uint64_t seed, double seconds, size_t count,
             bool traced, bool pair_hand) {
  Pass pass;
  pass.start_ns = QueryTrace::NowNs();
  const uint64_t deadline =
      pass.start_ns + static_cast<uint64_t>(seconds * 1e9);
  const size_t round = RoundSize(world);
  for (size_t k = 0;; ++k) {
    if (count != 0) {
      if (k >= count) break;
    } else if (k % round == 0 && QueryTrace::NowNs() >= deadline) {
      break;
    }
    pass.samples.push_back(
        RunRequest(world, NthRequest(world, seed, k), traced, pair_hand, k));
  }
  pass.end_ns = QueryTrace::NowNs();
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics reconciliation against Session::MetricsSnapshot()

uint64_t CounterValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

const std::vector<std::string>& ReconciledCounters() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>{
        "vcq.session.queries_total", "vcq.session.failures_total",
        "vcq.spill.bytes_total"};
    for (int r = 0; r < 4; ++r) {
      v->push_back("vcq.ladder.rung" + std::to_string(r) + "_runs_total");
      v->push_back("vcq.ladder.rung" + std::to_string(r) + "_ok_total");
    }
    return v;
  }();
  return *names;
}

std::map<std::string, uint64_t> SnapshotCounters() {
  const std::string json = vcq::Session::MetricsSnapshot();
  std::map<std::string, uint64_t> out;
  for (const std::string& name : ReconciledCounters())
    out[name] = CounterValue(json, name);
  return out;
}

/// What the benchmark itself counted for the counters above.
void CountExpected(const World& world, const Pass& pass,
                   std::map<std::string, uint64_t>& expect) {
  for (const Sample& s : pass.samples) {
    const Cell& cell = world.cells[s.cell];
    const bool ok = s.status == ExecStatus::kOk;
    if (s.hand_ran) {
      expect["vcq.session.queries_total"] += 1;  // paired hand-built run
      if (!s.hand_correct) expect["vcq.session.failures_total"] += 1;
    }
    if (cell.mode != Mode::kDegradation) {
      expect["vcq.session.queries_total"] += 1;
      if (!ok) expect["vcq.session.failures_total"] += 1;
      continue;
    }
    // The ladder: rungs 0, 1, 2 (multi-threaded prepares only), 3.
    std::vector<int> ladder = {0, 1};
    if (cell.threads > 1) ladder.push_back(2);
    ladder.push_back(3);
    for (int r : ladder) {
      if (ok && r > s.rung) break;
      const std::string base = "vcq.ladder.rung" + std::to_string(r);
      expect[base + "_runs_total"] += 1;
      expect["vcq.session.queries_total"] += 1;
      const bool attempt_ok = ok && r == s.rung;
      if (attempt_ok) {
        expect[base + "_ok_total"] += 1;
      } else {
        expect["vcq.session.failures_total"] += 1;
      }
    }
    expect["vcq.spill.bytes_total"] += s.spilled;
  }
}

// ---------------------------------------------------------------------------
// Trace attribution

const char* KindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kScan: return "scan";
    case NodeKind::kSelect: return "select";
    case NodeKind::kMap: return "map";
    case NodeKind::kHashJoin: return "hash_join";
    case NodeKind::kHashGroup: return "hash_group";
    case NodeKind::kFixedAgg: return "fixed_agg";
    case NodeKind::kOrderedAgg: return "ordered_agg";
  }
  return "?";
}

const std::vector<const char*>& OpKinds() {
  static const std::vector<const char*> kinds = {
      "scan", "select", "map", "hash_join", "hash_group", "fixed_agg",
      "ordered_agg"};
  return kinds;
}

/// Per-layer sums over the traced pass.
struct TraceAgg {
  // Scheduler.
  std::vector<double> admission_ms;
  std::vector<double> dispatch_ms;
  double wait_ns = 0;
  double wall_ns = 0;
  double busy_ns = 0;
  double capacity_ns = 0;  // wall × threads
  std::vector<double> region_skew;
  // Tectorwise operators (self time, worker-ns).
  std::map<std::string, double> op_self_ns;
  double tw_scanned = 0;
  double op_rows = 0;
  double op_slots = 0;  // batches × vector size
  // Joins, per engine tag.
  std::map<std::string, double> build_ns, join_wall_ns, join_worker_ns,
      join_scanned;
  // Degradation / spill / governor.
  double attempts = 0;
  double failed_attempts = 0;
  double spill_bytes = 0;
  double spill_write_ns = 0;
  double spill_read_ns = 0;
  double trips = 0;
  double requests = 0;
  // SQL compile stages (per request, µs).
  std::map<std::string, std::vector<double>> sql_stage_us;
  // Instrumentation health.
  double covered_ns = 0;
  double request_ns = 0;
  std::map<size_t, double> uncovered_ns_by_cell;
};

void Attribute(const World& world, const Sample& s, TraceAgg& agg) {
  const Cell& cell = world.cells[s.cell];
  agg.requests += 1;
  agg.spill_bytes += static_cast<double>(s.spilled);
  if (s.trace == nullptr) return;
  const QueryTrace& trace = *s.trace;
  const double wall = static_cast<double>(s.t1 - s.t0);
  double admission = 0;
  double dispatch = 0;
  double attempts = 0;
  std::map<uint32_t, std::map<uint32_t, double>> region_lanes;
  std::vector<std::pair<uint64_t, uint64_t>> cover;
  for (const TraceSpan& span : trace.Spans()) {
    const std::string_view cat = span.cat;
    const double d = static_cast<double>(span.duration_ns());
    bool layer = true;
    if (cat == "sched") {
      if (span.name == "admission.wait") admission += d;
      else dispatch += d;
    } else if (cat == "pipeline") {
      region_lanes[span.site][span.lane] += d;
      agg.busy_ns += d;
    } else if (cat == "spill") {
      if (span.name == "spill.write") agg.spill_write_ns += d;
      if (span.name == "spill.read") agg.spill_read_ns += d;
    } else if (cat == "governor") {
      agg.trips += 1;
      layer = false;
    } else if (cat == "session") {
      if (span.name.rfind("ladder.rung#", 0) == 0) attempts += 1;
      layer = false;  // brackets whole attempts; not a layer of its own
    } else if (cat == "sql") {
      if (span.name.rfind("sql.", 0) == 0)
        agg.sql_stage_us[span.name.substr(4)].push_back(d / 1e3);
    } else if (cat != "operator") {
      layer = false;
    }
    if (layer) cover.emplace_back(span.start_ns, span.end_ns);
  }
  agg.admission_ms.push_back(admission / 1e6);
  agg.dispatch_ms.push_back(dispatch / 1e6);
  agg.wait_ns += admission + dispatch;
  agg.wall_ns += wall;
  agg.capacity_ns += wall * static_cast<double>(cell.threads);
  for (const auto& [region, lanes] : region_lanes) {
    if (lanes.size() < 2) continue;
    double max = 0;
    double sum = 0;
    for (const auto& [lane, ns] : lanes) {
      max = std::max(max, ns);
      sum += ns;
    }
    if (sum > 0) agg.region_skew.push_back(max * lanes.size() / sum);
  }
  attempts = std::max(attempts, 1.0);
  agg.attempts += attempts;
  agg.failed_attempts += attempts - (s.status == ExecStatus::kOk ? 1 : 0);
  const double covered = static_cast<double>(CoveredNs(cover, s.t0, s.t1));
  agg.covered_ns += covered;
  agg.request_ns += wall;
  agg.uncovered_ns_by_cell[s.cell] += wall - covered;

  // Tectorwise operator self time: inclusive busy minus the children's.
  if (!cell.nodes.empty()) {
    const size_t vector_size = cell.options.vector_size;
    for (size_t i = 0; i < cell.nodes.size(); ++i) {
      const auto& node = cell.nodes[i];
      const auto stats = trace.OperatorAt(static_cast<uint32_t>(i));
      double children = 0;
      for (uint32_t c : node.children)
        children += static_cast<double>(trace.OperatorAt(c).ns);
      const double self = std::max(0.0, static_cast<double>(stats.ns) - children);
      agg.op_self_ns[KindName(node.kind)] += self;
      agg.op_rows += static_cast<double>(stats.rows);
      agg.op_slots += static_cast<double>(stats.batches * vector_size);
    }
    agg.tw_scanned += static_cast<double>(cell.scanned);
  }

  // Join builds: the per-site build spans the join-build protocol records
  // into the trace's NodeTelemetry (both engines).
  double build = 0;
  for (uint32_t site = 0; site < QueryTrace::kMaxSites; ++site)
    build += static_cast<double>(trace.node_telemetry().SpanNs(site));
  if (build > 0) {
    const std::string tag = cell.engine == Engine::kTyper ? "typer" : "tw";
    agg.build_ns[tag] += build;
    agg.join_wall_ns[tag] += static_cast<double>(s.exec_ns);
    agg.join_worker_ns[tag] +=
        static_cast<double>(s.exec_ns) * static_cast<double>(cell.threads);
    agg.join_scanned[tag] += static_cast<double>(cell.scanned);
  }
}

// ---------------------------------------------------------------------------
// Metric assembly

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// Latency percentiles are taken over the median latency of each (cell,
// binding) pair, not over raw requests: every pair runs equally often, so
// a raw percentile often falls on the gap between two pairs and reads
// the noisy extreme of one of them, which made it jump between runs.
std::vector<Metric> EndToEnd(const World& world, const Pass& pass,
                             double setup_s, double peak_bytes) {
  std::map<std::pair<size_t, size_t>, std::vector<double>> per_pair;
  std::map<size_t, std::vector<double>> per_cell;
  double ok = 0;
  const std::vector<Sample>& all = pass.samples;
  for (const Sample& s : all) {
    per_pair[{s.cell, s.binding}].push_back(s.ms());
    per_cell[s.cell].push_back(s.ms());
    if (s.good()) ok += 1;
  }
  // Throughput per round (every round runs the same request multiset),
  // median over the pass's rounds: a burst of host load slows the rounds
  // it falls in, not the whole run's figure.
  const size_t round = RoundSize(world);
  std::vector<double> round_qps, round_tuples;
  for (size_t r = 0; r * round < all.size(); ++r) {
    const size_t begin = r * round;
    const size_t end = std::min(all.size(), begin + round);
    const uint64_t t0 = r == 0 ? pass.start_ns : all[begin].t0;
    const uint64_t t1 = end == all.size() ? pass.end_ns : all[end].t0;
    const double seconds = static_cast<double>(t1 - t0) / 1e9;
    double good = 0, tuples = 0;
    for (size_t i = begin; i < end; ++i) {
      if (!all[i].good()) continue;
      good += 1;
      tuples += static_cast<double>(world.cells[all[i].cell].scanned);
    }
    round_qps.push_back(good / seconds);
    round_tuples.push_back(tuples / seconds);
  }
  std::vector<double> lat, short_lat;
  size_t short_requests = 0;
  for (const auto& [pair, v] : per_pair) {
    lat.push_back(Median(v));
    if (!world.cells[pair.first].short_class) continue;
    short_lat.push_back(lat.back());
    short_requests += v.size();
  }
  std::vector<double> cell_medians;
  for (const auto& [cell, v] : per_cell) cell_medians.push_back(Median(v));
  // The sample count behind each latency statistic.
  auto over = [](size_t medians, const char* of, size_t requests) {
    return "n=" + std::to_string(medians) + " " + of + " medians of " +
           std::to_string(requests) + " requests";
  };
  const std::string all_n = over(lat.size(), "pair", all.size());
  const std::string short_n = over(short_lat.size(), "pair", short_requests);
  const std::string over_rounds =
      "median of n=" + std::to_string(round_qps.size()) + " rounds";
  return {
      {"qps", Median(round_qps), "1/s", over_rounds},
      {"tuples_per_s", Median(round_tuples), "tuples/s", over_rounds},
      {"latency_ms_p50", Quantile(lat, 0.5), "ms", all_n},
      {"latency_ms_p90", Quantile(lat, 0.9), "ms", all_n},
      {"latency_geomean_ms", GeoMean(cell_medians), "ms",
       over(cell_medians.size(), "cell", all.size())},
      {"short_latency_ms_p50", Quantile(short_lat, 0.5), "ms", short_n},
      {"short_latency_ms_p90", Quantile(short_lat, 0.9), "ms", short_n},
      {"setup_s", setup_s, "s"},
      {"peak_work_mib", peak_bytes / kMiB, "MiB"},
      {"success_rate", Ratio(ok, static_cast<double>(all.size())), "ratio"},
  };
}

std::vector<Metric> PerLayer(const World& world, const Pass& plain,
                             const Pass& traced, const TraceAgg& agg,
                             double reconcile_mismatches) {
  std::vector<Metric> out;
  // Per-query engine cells, from the untraced pass: median latency and
  // worker-ns per scanned tuple (wall × threads ÷ scanned tuples, the
  // paper's §3.4 unit generalized to parallel runs).
  std::map<std::string, std::vector<double>> cell_ms;
  std::map<std::string, double> cell_factor;  // ns/tuple per ms
  std::map<std::string, std::vector<double>> vs_hand;
  for (const Sample& s : plain.samples) {
    const Cell& cell = world.cells[s.cell];
    if (!s.good()) continue;
    const double per_ms = 1e6 * static_cast<double>(cell.threads) /
                          static_cast<double>(cell.scanned);
    if (cell.mode == Mode::kSql) {
      if (s.hand_correct) {
        const std::string key = "tw." + cell.query;
        cell_ms[key].push_back(static_cast<double>(s.hand_ns) / 1e6);
        cell_factor[key] = per_ms;
        vs_hand[cell.query].push_back(static_cast<double>(s.exec_ns) /
                                      static_cast<double>(s.hand_ns));
      }
      continue;
    }
    const std::string key =
        std::string(cell.engine == Engine::kTyper ? "typer." : "tw.") +
        cell.query;
    cell_ms[key].push_back(static_cast<double>(s.exec_ns) / 1e6);
    cell_factor[key] = per_ms;
  }
  for (const char* engine : {"typer", "tw"}) {
    for (const vcq::QueryInfo& info : vcq::QueryCatalog()) {
      const std::string key = std::string(engine) + "." + info.name;
      const double ms = Median(cell_ms[key]);
      out.push_back({key + ".ms_p50", ms, "ms"});
      out.push_back({key + ".ns_per_tuple", ms * cell_factor[key], "ns"});
    }
  }
  for (const char* kind : OpKinds()) {
    const auto it = agg.op_self_ns.find(kind);
    const double ns = it == agg.op_self_ns.end() ? 0 : it->second;
    out.push_back({std::string("tw.op.") + kind + ".ns_per_tuple",
                   Ratio(ns, agg.tw_scanned), "ns"});
  }
  out.push_back({"tw.batch_density", Ratio(agg.op_rows, agg.op_slots), "ratio"});
  for (const char* tag : {"typer", "tw"}) {
    auto get = [tag](const std::map<std::string, double>& m) {
      const auto it = m.find(tag);
      return it == m.end() ? 0.0 : it->second;
    };
    const double build = get(agg.build_ns);
    const double wall = get(agg.join_wall_ns);
    const double worker = get(agg.join_worker_ns);
    const double scanned = get(agg.join_scanned);
    const double threads = Ratio(worker, wall);
    out.push_back({std::string("join.") + tag + ".build_share",
                   Ratio(build, wall), "ratio"});
    out.push_back({std::string("join.") + tag + ".build_ns_per_tuple",
                   Ratio(build * threads, scanned), "ns"});
    out.push_back({std::string("join.") + tag + ".probe_ns_per_tuple",
                   Ratio((wall - build) * threads, scanned), "ns"});
  }
  for (const vcq::QueryInfo& info : vcq::QueryCatalog()) {
    out.push_back({"sql." + info.name + ".vs_hand", Median(vs_hand[info.name]),
                   "x"});
  }
  for (const char* stage : {"parse", "bind", "optimize", "lower"}) {
    const auto it = agg.sql_stage_us.find(stage);
    out.push_back({std::string("sql.") + stage + "_us",
                   it == agg.sql_stage_us.end() ? 0 : Median(it->second),
                   "us"});
  }
  double rejected = 0;
  for (const Pass* p : {&plain, &traced}) {
    for (const Sample& s : p->samples)
      rejected += s.status == ExecStatus::kRejected ? 1 : 0;
  }
  out.push_back({"sched.admission_wait_ms_p90", Quantile(agg.admission_ms, 0.9),
                 "ms"});
  out.push_back({"sched.dispatch_wait_ms_p90", Quantile(agg.dispatch_ms, 0.9),
                 "ms"});
  out.push_back({"sched.wait_share", Ratio(agg.wait_ns, agg.wall_ns), "ratio"});
  out.push_back({"sched.rejected", rejected, "count"});
  out.push_back({"sched.worker_busy_frac", Ratio(agg.busy_ns, agg.capacity_ns),
                 "ratio"});
  out.push_back({"sched.region_skew", Median(agg.region_skew), "x"});
  out.push_back({"ladder.attempts_per_query", Ratio(agg.attempts, agg.requests),
                 "count"});
  out.push_back({"ladder.failed_attempt_share",
                 Ratio(agg.failed_attempts, agg.attempts), "ratio"});
  out.push_back({"spill.mib_per_query",
                 Ratio(agg.spill_bytes / kMiB, agg.requests), "MiB"});
  out.push_back({"spill.write_ms_share", Ratio(agg.spill_write_ns, agg.wall_ns),
                 "ratio"});
  out.push_back({"spill.read_ms_share", Ratio(agg.spill_read_ns, agg.wall_ns),
                 "ratio"});
  out.push_back({"governor.trips_per_query", Ratio(agg.trips, agg.requests),
                 "count"});
  out.push_back({"datagen.tpch_s", world.datagen_tpch_s, "s"});
  out.push_back({"datagen.ssb_s", world.datagen_ssb_s, "s"});
  out.push_back({"api.prepare_us", Median(world.prepare_us), "us"});
  // Tracing cost: the traced replay against the untraced pass it repeats.
  double plain_ns = 0;
  double traced_ns = 0;
  for (const Sample& s : plain.samples) plain_ns += static_cast<double>(s.t1 - s.t0);
  for (const Sample& s : traced.samples) traced_ns += static_cast<double>(s.t1 - s.t0);
  out.push_back({"trace.overhead_frac", Ratio(traced_ns, plain_ns) - 1, "ratio"});
  out.push_back({"trace.unattributed_frac",
                 1 - Ratio(agg.covered_ns, agg.request_ns), "ratio"});
  out.push_back({"metrics.reconcile_mismatches", reconcile_mismatches, "count"});
  return out;
}

// ---------------------------------------------------------------------------
// Output

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

size_t DirEntries(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return 0;
  size_t n = 0;
  while (dirent* e = readdir(dir)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0)
      ++n;
  }
  closedir(dir);
  return n;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--scale") args.overrides.scale = std::atof(value.c_str());
    else if (key == "--plant" && value == "q9-tw")
      args.overrides.plant_q9_tw = true;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: vcq_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale <sf>] "
                 "[--plant q9-tw]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string spill_dir = vcq::runtime::SpillManager::BaseDir();
  const size_t spill_entries0 = DirEntries(spill_dir);

  // Set-up, repeated: setup_s is the median of at least kMinSetups
  // set-ups, more while they add up to under kSetupBudgetS (cheap set-ups
  // are the noisy ones). Only the last world runs; --trace 1 sets up once.
  constexpr int kMinSetups = 3;
  constexpr int kMaxSetups = 9;
  constexpr double kSetupBudgetS = 3.0;
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  double setup_total = 0;
  std::unique_ptr<World> world;
  const int setups = args.trace ? 1 : kMinSetups;
  for (int i = 0; i < setups || (!args.trace && setup_total < kSetupBudgetS &&
                                 i < kMaxSetups);
       ++i) {
    world.reset();
    const uint64_t t0 = QueryTrace::NowNs();
    world = Setup(*spec, args.overrides, args.trace);
    setup_s.push_back(static_cast<double>(QueryTrace::NowNs() - t0) / 1e9);
    setup_total += setup_s.back();
  }
  BuildReferences(*world, errors);

  const size_t live0 = vcq::runtime::MemPool::live_bytes();
  const size_t gov0 = vcq::runtime::ResourceGovernor::Global().in_use();
  const auto counters0 = SnapshotCounters();
  vcq::runtime::ResourceGovernor::Global().ResetPeak();

  const double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const bool pair_hand = args.trace;
  Pass plain = RunPass(*world, args.seed, plain_seconds, 0, false, pair_hand);
  const double peak = static_cast<double>(
      vcq::runtime::ResourceGovernor::Global().peak() - gov0);
  Pass traced;
  TraceAgg agg;
  if (args.trace) {
    traced = RunPass(*world, args.seed, 0, plain.samples.size(), true, false);
    for (const Sample& s : traced.samples) Attribute(*world, s, agg);
  }

  // Metrics reconciliation: the registry's counters against our own count.
  std::map<std::string, uint64_t> expect;
  CountExpected(*world, plain, expect);
  CountExpected(*world, traced, expect);
  const auto counters1 = SnapshotCounters();
  double mismatches = 0;
  for (const std::string& name : ReconciledCounters()) {
    const uint64_t seen = counters1.at(name) - counters0.at(name);
    if (seen != expect[name]) {
      mismatches += 1;
      std::printf("finding: metrics mismatch %s registry=%" PRIu64
                  " benchmark=%" PRIu64 "\n",
                  name.c_str(), seen, expect[name]);
    }
  }

  // Correctness gate: every result, then the resource baselines.
  size_t attempted = 0;
  size_t failed = 0;
  for (const Pass* p : {&plain, &traced}) {
    for (const Sample& s : p->samples) {
      ++attempted;
      if (s.good()) continue;
      ++failed;
      const Cell& cell = world->cells[s.cell];
      errors.push_back(cell.name + " [" + cell.bindings[s.binding].label +
                       "]: " + (s.status == ExecStatus::kOk
                                    ? "wrong result"
                                    : StatusName(s.status)));
    }
  }
  // Drop the traces before the baseline check: they hold no pool memory,
  // but keep the check about the engine, not the benchmark's buffers.
  for (Pass* p : {&plain, &traced}) {
    for (Sample& s : p->samples) s.trace.reset();
  }
  if (vcq::runtime::MemPool::live_bytes() != live0) {
    errors.push_back("MemPool::live_bytes() " +
                     std::to_string(vcq::runtime::MemPool::live_bytes()) +
                     " != baseline " + std::to_string(live0));
  }
  if (vcq::runtime::ResourceGovernor::Global().in_use() != gov0) {
    errors.push_back("governor in-use bytes did not return to baseline");
  }
  if (DirEntries(spill_dir) != spill_entries0) {
    errors.push_back("spill directory " + spill_dir +
                     " holds entries the workload left behind");
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(*world, plain, traced, agg, mismatches);
  } else {
    metrics = EndToEnd(*world, plain, Median(setup_s), peak);
  }
  const double unattributed = 1 - Ratio(agg.covered_ns, agg.request_ns);
  if (args.trace && unattributed > 0.05) {
    std::printf("finding: trace.unattributed_frac %.4f > 0.05 on %s;"
                " largest shares of the unattributed time:",
                unattributed, spec->name.c_str());
    std::vector<std::pair<double, size_t>> cells;
    for (const auto& [cell, ns] : agg.uncovered_ns_by_cell)
      cells.emplace_back(ns, cell);
    std::sort(cells.rbegin(), cells.rend());
    const double uncovered = agg.request_ns - agg.covered_ns;
    for (size_t i = 0; i < std::min<size_t>(3, cells.size()); ++i) {
      std::printf(" %s %.0f%%", world->cells[cells[i].second].name.c_str(),
                  100 * Ratio(cells[i].first, uncovered));
    }
    std::printf("\n");
  }
  const size_t round = RoundSize(*world);
  std::printf("workload %s seed %" PRIu64 " requests %zu (untraced %zu: %zu"
              " rounds of %zu in %.2f s)\n",
              spec->name.c_str(), args.seed, attempted, plain.samples.size(),
              plain.samples.size() / round, round, plain.seconds());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());
  world.reset();
  const bool correct = errors.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
