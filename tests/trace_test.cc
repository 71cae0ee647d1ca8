#include "runtime/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "api/query_catalog.h"
#include "api/session.h"
#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/metrics.h"
#include "runtime/params.h"
#include "sql/sql.h"
#include "tectorwise/plan.h"
#include "tectorwise/queries.h"

// The observability contract (runtime/trace.h, runtime/metrics.h):
//  - every trace's per-lane span set is laminar (any two spans on one
//    lane are disjoint or properly nested) even under concurrent traced
//    executions on both engines — the single-writer-per-lane recording
//    discipline holds;
//  - EXPLAIN ANALYZE numbers are real: the root operator's recorded rows
//    equal the result cardinality, and all nine catalog queries render
//    measured rows / ns-per-tuple on both engines;
//  - tracing never changes answers (byte-identity kOff vs kSpans) and
//    kOff leaves no trace behind and costs ≤2% on a Q6 microbench;
//  - the metrics registry is race-free (hammered under TSan in CI) and
//    its log2 histogram brackets percentiles within one bucket.

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;
using runtime::QueryTrace;
using runtime::TraceLevel;
using runtime::TraceSpan;

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.01));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.02));
  return *db;
}

const Database& DbFor(Query q) { return IsSsbQuery(q) ? SsbDb() : TpchDb(); }

std::vector<Query> AllQueries() {
  std::vector<Query> all = TpchQueries();
  for (Query q : SsbQueries()) all.push_back(q);
  return all;
}

// A span set is well-formed when, per lane, any two spans are disjoint
// or properly nested (a laminar family): sort by (start asc, end desc)
// and check each span sits inside the innermost still-open ancestor.
void ExpectLaminarPerLane(const QueryTrace& trace, const std::string& ctx) {
  std::map<uint32_t, std::vector<TraceSpan>> by_lane;
  for (const TraceSpan& s : trace.Spans()) {
    EXPECT_LE(s.start_ns, s.end_ns) << ctx << " span " << s.name;
    EXPECT_NE(s.cat, nullptr) << ctx;
    by_lane[s.lane].push_back(s);
  }
  for (auto& [lane, spans] : by_lane) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.end_ns > b.end_ns;
              });
    std::vector<const TraceSpan*> open;
    for (const TraceSpan& s : spans) {
      while (!open.empty() && open.back()->end_ns <= s.start_ns)
        open.pop_back();
      if (!open.empty()) {
        EXPECT_LE(s.end_ns, open.back()->end_ns)
            << ctx << " lane " << lane << ": span '" << s.name
            << "' overlaps '" << open.back()->name
            << "' without nesting inside it";
      }
      open.push_back(&s);
    }
  }
}

bool HasSpanNamed(const QueryTrace& trace, const std::string& name) {
  for (const TraceSpan& s : trace.Spans()) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(TraceTest, SpanTreeWellFormedUnderConcurrentTracedExecutions) {
  // 8 concurrent traced executions per (engine, threads) cell; each
  // execution owns its trace, so laminarity per lane must survive the
  // worker pool interleaving executions arbitrarily.
  for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      Session session(TpchDb());
      QueryOptions opt;
      opt.threads = threads;
      opt.trace = TraceLevel::kSpans;
      std::vector<QueryResult> results(8);
      std::vector<std::thread> workers;
      for (int i = 0; i < 8; ++i) {
        workers.emplace_back([&, i] {
          PreparedQuery q =
              session.Prepare(e, i % 2 == 0 ? Query::kQ6 : Query::kQ3, opt);
          results[i] = q.Execute();
        });
      }
      for (std::thread& w : workers) w.join();
      for (int i = 0; i < 8; ++i) {
        const std::string ctx = std::string(EngineName(e)) + " threads=" +
                                std::to_string(threads) + " exec#" +
                                std::to_string(i);
        ASSERT_TRUE(results[i].ok()) << ctx;
        ASSERT_NE(results[i].trace, nullptr) << ctx;
        EXPECT_GT(results[i].trace->span_count(), 0u) << ctx;
        // The session wraps admission in a span on every traced run.
        EXPECT_TRUE(HasSpanNamed(*results[i].trace, "admission.wait")) << ctx;
        ExpectLaminarPerLane(*results[i].trace, ctx);
      }
    }
  }
}

TEST(TraceTest, RootOperatorRowsMatchResultCardinality) {
  // EXPLAIN ANALYZE's per-node rows are real measurements: the root's
  // recorded output must equal the result's cardinality exactly.
  const std::pair<const char*, Query> cases[] = {
      {"Q1", Query::kQ1}, {"Q6", Query::kQ6}, {"Q3", Query::kQ3}};
  for (const auto& [name, q] : cases) {
    const tectorwise::Prepared prepared =
        tectorwise::Prepare(TpchDb(), name, {});
    QueryTrace trace;
    QueryOptions opt;
    opt.trace = TraceLevel::kSpans;
    opt.trace_sink = &trace;
    opt.telemetry = &trace.node_telemetry();
    const QueryResult result = prepared.Run(opt, DefaultParams(q));
    ASSERT_TRUE(result.ok()) << name;
    const auto root = trace.OperatorAt(prepared.plan().root());
    if (q == Query::kQ3) {
      // Q3's top-10 is applied by the result collector, after the root
      // operator — the root must have produced at least the kept rows.
      EXPECT_GE(root.rows, result.rows.size()) << name;
    } else {
      EXPECT_EQ(root.rows, result.rows.size()) << name;
    }
    EXPECT_GT(root.batches, 0u) << name;
  }
}

TEST(TraceTest, ExplainAnalyzeRendersAllQueriesOnBothEngines) {
  // Acceptance bar: per-node measured rows and ns/tuple for all nine
  // catalog queries on both engines.
  for (Query q : AllQueries()) {
    Session session(DbFor(q));
    for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
      QueryOptions opt;
      opt.trace = TraceLevel::kSpans;
      const std::string text = session.Prepare(e, q, opt).ExplainAnalyze();
      const std::string ctx =
          std::string(QueryName(q)) + " on " + EngineName(e) + ":\n" + text;
      EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos) << ctx;
      EXPECT_NE(text.find("status=ok"), std::string::npos) << ctx;
      EXPECT_NE(text.find("rows="), std::string::npos) << ctx;
      EXPECT_NE(text.find("ns/tuple"), std::string::npos) << ctx;
    }
  }
}

TEST(TraceTest, SqlPrepareStagesLandInTheExecutionTrace) {
  // PrepareSql records parse/bind/optimize/lower spans into the handle's
  // prepare trace; every traced execution prepends them (Append), so the
  // full compile-to-result timeline lives in one trace.
  Session session(TpchDb());
  QueryOptions opt;
  opt.trace = TraceLevel::kSpans;
  PreparedQuery q = session.PrepareSql(
      "SELECT count(*) FROM lineitem WHERE l_quantity < 10",
      Engine::kTectorwise, opt);
  const QueryResult result = q.Execute();
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.trace, nullptr);
  for (const char* stage :
       {"sql.parse", "sql.bind", "sql.optimize", "sql.lower"}) {
    EXPECT_TRUE(HasSpanNamed(*result.trace, stage)) << stage;
  }
}

TEST(TraceTest, ResultsAreByteIdenticalWithTracingOnAndOff) {
  // operator== compares names/rows/status and deliberately excludes
  // wall_ns and trace — a traced run must equal its untraced reference.
  for (Query q : AllQueries()) {
    const Database& db = DbFor(q);
    Session session(db);
    for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
      QueryOptions off;
      off.threads = 4;
      const QueryResult reference = RunQuery(db, e, q, off);
      QueryOptions traced = off;
      traced.trace = TraceLevel::kSpans;
      const QueryResult observed = session.Prepare(e, q, traced).Execute();
      EXPECT_EQ(observed, reference) << QueryName(q) << " on "
                                     << EngineName(e);
      EXPECT_NE(observed.trace, nullptr);
      EXPECT_GT(observed.wall_ns, 0u);
    }
  }
}

TEST(TraceTest, OffLeavesNoTraceBehind) {
  Session session(TpchDb());
  const QueryResult result =
      session.Prepare(Engine::kTectorwise, Query::kQ6, {}).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.trace, nullptr);   // level kOff: nothing allocated
  EXPECT_GT(result.wall_ns, 0u);      // wall time is stamped regardless

  // A sink that no traced execution wrote to stays empty.
  QueryTrace untouched;
  EXPECT_EQ(untouched.span_count(), 0u);
  EXPECT_EQ(untouched.Spans().size(), 0u);
}

TEST(TraceTest, DisabledTracingOverheadOnQ6IsWithinTwoPercent) {
  // Both arms run the identical engine path with TraceLevel::kOff and a
  // null sink — the instrumentation must degenerate to null checks. Min
  // of N on each arm (alternating to decorrelate from machine noise),
  // with a small absolute slack for sub-millisecond jitter.
  const tectorwise::Prepared prepared =
      tectorwise::Prepare(TpchDb(), "Q6", {});
  const QueryOptions baseline;  // defaults: kOff, no sink
  QueryOptions disabled;
  disabled.trace = TraceLevel::kOff;
  disabled.trace_sink = nullptr;
  const QueryParams params = DefaultParams(Query::kQ6);
  auto time_ns = [&](const QueryOptions& opt) {
    const uint64_t start = QueryTrace::NowNs();
    prepared.Run(opt, params);
    return QueryTrace::NowNs() - start;
  };
  time_ns(baseline);  // warm-up (first touch of lazy state)
  uint64_t base_min = UINT64_MAX;
  uint64_t disabled_min = UINT64_MAX;
  for (int rep = 0; rep < 9; ++rep) {
    base_min = std::min(base_min, time_ns(baseline));
    disabled_min = std::min(disabled_min, time_ns(disabled));
  }
  const double limit =
      static_cast<double>(base_min) * 1.02 + 500'000.0;  // +0.5ms slack
  EXPECT_LE(static_cast<double>(disabled_min), limit)
      << "disabled-tracing run took " << disabled_min << "ns vs baseline "
      << base_min << "ns";
}

TEST(TraceTest, ChromeJsonHasTheTraceEventShape) {
  // CI validates the export with python -m json.tool; here we pin the
  // chrome://tracing envelope and the complete-event phase marker.
  Session session(TpchDb());
  QueryOptions opt;
  opt.trace = TraceLevel::kSpans;
  opt.threads = 4;
  const QueryResult result =
      session.Prepare(Engine::kTectorwise, Query::kQ9, opt).Execute();
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.trace, nullptr);
  const std::string json = result.trace->ToChromeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("admission.wait"), std::string::npos);
}

// ---------------------------------------------------------------------------
// metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundsAndPercentiles) {
  using metrics::Histogram;
  // Bucket 0 holds {0, 1}; bucket i>=1 holds [2^i, 2^(i+1)).
  EXPECT_EQ(Histogram::BucketLo(0), 0u);
  EXPECT_EQ(Histogram::BucketHi(1), 4u);
  EXPECT_EQ(Histogram::BucketLo(6), 64u);
  EXPECT_EQ(Histogram::BucketHi(6), 128u);

  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);  // empty -> 0

  // 900 fast observations (value 10, bucket [8,16)) and 100 slow ones
  // (value 10'000, bucket [8192,16384)): p50 must land in the fast
  // bucket, p99 in the slow one — within one log2 bucket by design.
  for (int i = 0; i < 900; ++i) h.Observe(10);
  for (int i = 0; i < 100; ++i) h.Observe(10'000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 900u * 10 + 100u * 10'000);
  const uint64_t p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 8u);
  EXPECT_LT(p50, 16u);
  const uint64_t p99 = h.Percentile(0.99);
  EXPECT_GE(p99, 8192u);
  EXPECT_LT(p99, 16384u);

  // Degenerate single-value distribution: every percentile in-bucket.
  Histogram single;
  for (int i = 0; i < 32; ++i) single.Observe(100);
  // In-bucket interpolation may return the exclusive upper bound as
  // q -> 1, so the contract is [lo, hi] inclusive.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(single.Percentile(q), 64u) << q;
    EXPECT_LE(single.Percentile(q), 128u) << q;
  }
}

TEST(MetricsTest, SnapshotIsRaceFreeUnderConcurrentUpdates) {
  // Hammer one counter/gauge/histogram from 8 threads while snapshotting
  // concurrently — TSan (CI) proves the lock-free claim; the final
  // counter value proves no update was lost.
  auto& reg = metrics::Registry::Global();
  auto& counter = reg.GetCounter("vcq.test.hammer_total");
  auto& gauge = reg.GetGauge("vcq.test.hammer_gauge");
  auto& histogram = reg.GetHistogram("vcq.test.hammer_us");
  const uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        counter.Add();
        gauge.Set(i);
        histogram.Observe(static_cast<uint64_t>(t * kOps + i));
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    const std::string json = metrics::RenderJson();
    EXPECT_NE(json.find("vcq.test.hammer_total"), std::string::npos);
    const std::string prom = metrics::RenderPrometheus();
    EXPECT_NE(prom.find("vcq_test_hammer_total"), std::string::npos);
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.value(), before + kThreads * kOps);
}

TEST(MetricsTest, QueryExecutionFeedsTheRegistry) {
  auto& reg = metrics::Registry::Global();
  const uint64_t queries_before =
      reg.GetCounter("vcq.session.queries_total").value();
  auto& latency = reg.GetHistogram("vcq.query.latency_us");
  const uint64_t observed_before = latency.count();

  Session session(TpchDb());
  ASSERT_TRUE(
      session.Prepare(Engine::kTectorwise, Query::kQ6, {}).Execute().ok());

  EXPECT_EQ(reg.GetCounter("vcq.session.queries_total").value(),
            queries_before + 1);
  EXPECT_EQ(latency.count(), observed_before + 1);

  // The session-level snapshot surface renders the same registry.
  const std::string snapshot = Session::MetricsSnapshot();
  EXPECT_NE(snapshot.find("vcq.session.queries_total"), std::string::npos);
  EXPECT_NE(snapshot.find("vcq.query.latency_us"), std::string::npos);
}

}  // namespace
}  // namespace vcq
