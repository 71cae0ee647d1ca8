// Ablation: what the query scheduler buys (gang scheduling over a fixed
// worker set, weighted fair queueing, admission control). Extends
// ablation_session_reuse's mixed-stream mode with the serving-layer
// questions it left open:
//
//  1. bounded gang workers: a mixed stream with 8 executions in flight on
//     schedulers of different fixed capacities. The pre-scheduler pool
//     grew its thread set to peak concurrent demand (here up to
//     8 x threads workers); the scheduler holds the configured bound with
//     the same results.
//
//  2. fairness / tail latency: a latency-sensitive session (Q6) sharing
//     the scheduler with an analytical session that keeps big queries
//     (Q9/Q18) in flight. Under FIFO the short query's regions queue
//     behind the analytical backlog; under weighted fair queueing (short
//     session weight 4) its p99 drops while the analytical stream keeps
//     running. Reports per-session throughput and short-query latency
//     percentiles for both policies.
//
//  3. weight proportion: two sessions running the same query at weights
//     3:1 on a saturated scheduler — region dispatches (and completed
//     executions) should track the weights.
//
// Env: VCQ_SF (default 0.3; VCQ_QUICK=1 shrinks to 0.05), VCQ_REPS.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>
#include <vector>

#include "api/session.h"
#include "api/vcq.h"
#include "benchutil/bench.h"
#include "datagen/tpch.h"
#include "runtime/scheduler.h"
#include "runtime/worker_pool.h"

namespace {

using namespace vcq;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

/// Drives `prepared` round-robin with `inflight` concurrent executions.
double RunInFlight(std::vector<PreparedQuery>& prepared, size_t executions,
                   size_t inflight) {
  const auto start = Clock::now();
  std::deque<ExecutionHandle> handles;
  for (size_t i = 0; i < executions; ++i) {
    if (handles.size() == inflight) {
      handles.front().Wait();
      handles.pop_front();
    }
    handles.push_back(prepared[i % prepared.size()].ExecuteAsync());
  }
  while (!handles.empty()) {
    handles.front().Wait();
    handles.pop_front();
  }
  return MsSince(start);
}

struct FairnessResult {
  size_t short_count = 0;
  size_t long_count = 0;
  double short_p50 = 0;
  double short_p99 = 0;
};

/// A latency-sensitive Q6 client and an analytical client (Q9/Q18, two in
/// flight) sharing one scheduler for `window_ms`.
FairnessResult RunMixedWindow(const runtime::Database& db,
                              runtime::SchedPolicy policy,
                              double short_weight, double window_ms) {
  // Capacity 1 keeps a genuine region backlog in front of the scheduler
  // (2-wide regions use the caller plus the single worker, one region at a
  // time) — the queueing regime where dispatch order is what decides tail
  // latency.
  runtime::WorkerPool pool(1);
  pool.scheduler().SetPolicy(policy);
  Session short_session(db, pool);
  Session long_session(db, pool);
  short_session.SetWeight(short_weight);

  runtime::QueryOptions opt;
  opt.threads = 2;
  PreparedQuery q6 = short_session.Prepare(Engine::kTyper, Query::kQ6, opt);
  // Q9 on both engines: long, scan-dominated regions with no serial gaps,
  // so the analytical stream keeps the region queue genuinely backlogged.
  std::vector<PreparedQuery> analytical;
  analytical.push_back(
      long_session.Prepare(Engine::kTectorwise, Query::kQ9, opt));
  analytical.push_back(long_session.Prepare(Engine::kTyper, Query::kQ9, opt));

  FairnessResult result;
  std::vector<double> latencies;
  std::atomic<bool> stop{false};

  std::thread long_client([&] {
    std::deque<ExecutionHandle> handles;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      while (handles.size() < 4) {
        handles.push_back(analytical[i++ % analytical.size()].ExecuteAsync());
      }
      handles.front().Wait();
      handles.pop_front();
      ++result.long_count;
    }
    while (!handles.empty()) {
      handles.front().Wait();
      handles.pop_front();
    }
  });

  const auto start = Clock::now();
  while (MsSince(start) < window_ms) {
    const auto begin = Clock::now();
    q6.Execute();
    latencies.push_back(MsSince(begin));
    ++result.short_count;
  }
  stop.store(true, std::memory_order_relaxed);
  long_client.join();

  result.short_p50 = Percentile(latencies, 0.50);
  result.short_p99 = Percentile(latencies, 0.99);
  return result;
}

}  // namespace

int main() {
  const bool quick = benchutil::Quick();
  const double sf = benchutil::EnvSf(quick ? 0.05 : 0.3);
  benchutil::PrintHeader(
      "Ablation: query scheduler (gang scheduling, fairness, admission)",
      "fixed worker set + per-session WFQ vs the grow-to-demand FIFO pool",
      "SF=" + benchutil::Fmt(sf, 2));

  runtime::Database db = datagen::GenerateTpch(sf);

  // --- 1. bounded gang workers over a mixed in-flight stream ------------
  const size_t executions = quick ? 24 : 60;
  std::printf("\n-- mixed stream, %zu executions, 8 in flight --\n",
              executions);
  benchutil::Table bounded({"scheduler threads", "spawned workers", "ms",
                            "QPS"});
  for (const size_t cap : {size_t{2}, size_t{4}}) {
    runtime::WorkerPool pool(cap);
    Session session(db, pool);
    runtime::QueryOptions opt;
    opt.threads = 2;
    std::vector<PreparedQuery> prepared;
    for (Query q : TpchQueries()) {
      prepared.push_back(session.Prepare(Engine::kTyper, q, opt));
      prepared.push_back(session.Prepare(Engine::kTectorwise, q, opt));
    }
    const double ms = RunInFlight(prepared, executions, 8);
    bounded.AddRow(
        {std::to_string(cap), std::to_string(pool.spawned_threads()),
         benchutil::Fmt(ms, 1),
         benchutil::Fmt(1000.0 * static_cast<double>(executions) / ms, 1)});
  }
  bounded.Print();
  std::printf(
      "paper shape: the worker count is a configuration, not a function of "
      "load — the pre-scheduler pool spawned up to in-flight x threads "
      "(16 here) to keep barriers deadlock-free; gang admission holds the "
      "bound instead.\n");

  // --- 2. FIFO vs weighted fairness under an analytical backlog ---------
  const double window_ms = quick ? 1200 : 4000;
  std::printf("\n-- short Q6 client vs analytical backlog, %.1fs window --\n",
              window_ms / 1000.0);
  benchutil::Table fair({"policy", "short wgt", "Q6 execs", "Q6 p50 ms",
                         "Q6 p99 ms", "analytical execs"});
  const FairnessResult fifo =
      RunMixedWindow(db, runtime::SchedPolicy::kFifo, 1.0, window_ms);
  const FairnessResult wfq =
      RunMixedWindow(db, runtime::SchedPolicy::kWeightedFair, 4.0, window_ms);
  fair.AddRow({"fifo", "1", std::to_string(fifo.short_count),
               benchutil::Fmt(fifo.short_p50, 2),
               benchutil::Fmt(fifo.short_p99, 2),
               std::to_string(fifo.long_count)});
  fair.AddRow({"weighted-fair", "4", std::to_string(wfq.short_count),
               benchutil::Fmt(wfq.short_p50, 2),
               benchutil::Fmt(wfq.short_p99, 2),
               std::to_string(wfq.long_count)});
  fair.Print();
  std::printf(
      "paper shape: FIFO lets a long query's regions delay a short one's "
      "(ROADMAP's mixed-stream tail-latency item); weighted fair queueing "
      "dispatches the short session's regions ahead of the backlog, cutting "
      "Q6 p99 without starving the analytical stream.\n");

  // --- 3. weight-proportional region dispatch ---------------------------
  std::printf("\n-- weight proportion, two identical Q6 sessions, 3:1 --\n");
  {
    runtime::WorkerPool pool(1);  // saturated: every dispatch is a choice
    Session a(db, pool);
    Session b(db, pool);
    a.SetWeight(3.0);
    runtime::QueryOptions opt;
    opt.threads = 2;
    PreparedQuery qa = a.Prepare(Engine::kTyper, Query::kQ6, opt);
    PreparedQuery qb = b.Prepare(Engine::kTyper, Query::kQ6, opt);
    std::atomic<bool> stop{false};
    std::atomic<size_t> count_a{0}, count_b{0};
    std::thread ta([&] {
      std::deque<ExecutionHandle> h;
      while (!stop.load()) {
        while (h.size() < 3) h.push_back(qa.ExecuteAsync());
        h.front().Wait();
        h.pop_front();
        count_a.fetch_add(1);
      }
      while (!h.empty()) { h.front().Wait(); h.pop_front(); }
    });
    std::thread tb([&] {
      std::deque<ExecutionHandle> h;
      while (!stop.load()) {
        while (h.size() < 3) h.push_back(qb.ExecuteAsync());
        h.front().Wait();
        h.pop_front();
        count_b.fetch_add(1);
      }
      while (!h.empty()) { h.front().Wait(); h.pop_front(); }
    });
    std::this_thread::sleep_for(
        std::chrono::milliseconds(quick ? 800 : 2500));
    stop.store(true);
    ta.join();
    tb.join();
    const uint64_t regions_a = pool.scheduler().regions_dispatched(a.stream());
    const uint64_t regions_b = pool.scheduler().regions_dispatched(b.stream());
    benchutil::Table prop({"session", "weight", "executions", "regions",
                           "region share"});
    const double total =
        static_cast<double>(regions_a + regions_b) / 100.0;
    prop.AddRow({"A", "3", std::to_string(count_a.load()),
                 std::to_string(regions_a),
                 benchutil::Fmt(static_cast<double>(regions_a) / total, 1) +
                     "%"});
    prop.AddRow({"B", "1", std::to_string(count_b.load()),
                 std::to_string(regions_b),
                 benchutil::Fmt(static_cast<double>(regions_b) / total, 1) +
                     "%"});
    prop.Print();
    std::printf(
        "paper shape: with both streams backlogged, region dispatches track "
        "the 3:1 weights (stride scheduling over per-session passes).\n");
  }
  return 0;
}
