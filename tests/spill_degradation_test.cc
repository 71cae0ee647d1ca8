#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "api/session.h"
#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/fault_injector.h"
#include "runtime/mem_pool.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/trace.h"

// PR 8 acceptance: degrade, don't die.
//
//  - Spill byte-identity: an execution whose memory budget is far below
//    its in-memory peak completes BY SPILLING — staging join builds and
//    group tables to temp files — and its result is byte-identical to the
//    unconstrained run, both engines, serial and parallel. The same budget
//    without spill fails with kResourceExhausted (the PR 6 behavior this
//    PR upgrades).
//  - Nothing leaks, ever: after a successful spilled run AND after a
//    mid-spill injected fault, MemPool::live_bytes(), the process
//    governor, and the spill directory are all back at their pre-run
//    baselines (every temp file unlinked).
//  - The degradation ladder: ExecuteWithDegradation retries
//    kResourceExhausted one rung down at a time (spill -> fewer threads ->
//    minimal vectors), stamps the surviving rung into the result, and
//    ExplainDegradation records the descent.
//  - ExecuteWithRetry honors RetryPolicy::total_timeout as an overall
//    wall-clock bound across attempts and backoff sleeps.

namespace vcq {
namespace {

namespace fs = std::filesystem;

using runtime::Database;
using runtime::ExecStatus;
using runtime::FaultAction;
using runtime::FaultInjector;
using runtime::FaultSpec;
using runtime::MemPool;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::ResourceGovernor;
using runtime::SpillManager;

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.01));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.01));
  return *db;
}

/// Redirects spill files into a private directory (VCQ_SPILL_DIR is
/// re-read per execution) so the tests can assert it returns to empty —
/// zero leftover spill files — after every run.
const std::string& SpillDir() {
  static const std::string* dir = [] {
    auto* d = new std::string(fs::temp_directory_path() /
                              ("vcq-spill-test-" + std::to_string(getpid())));
    fs::create_directories(*d);
    ::setenv("VCQ_SPILL_DIR", d->c_str(), 1);
    return d;
  }();
  return *dir;
}

size_t SpillDirEntries() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(SpillDir()))
    ++n;
  return n;
}

struct Workload {
  const Database* db;
  Query query;
};

/// The in-memory reference plus its measured peak (threads=1 for exact,
/// deterministic accounting).
QueryResult Reference(Session& session, Engine engine, Query query,
                      size_t* peak) {
  QueryOptions opt;
  opt.threads = 1;
  PreparedQuery q = session.Prepare(engine, query, opt);
  QueryResult expected = q.Execute();
  *peak = q.measured_peak_bytes();
  return expected;
}

TEST(SpillTest, OverBudgetCompletesByteIdenticalWhereFailOnlyDied) {
  SpillDir();
  const Workload workloads[] = {
      {&TpchDb(), Query::kQ3},
      {&TpchDb(), Query::kQ9},
      {&SsbDb(), Query::kSsbQ41},
  };
  for (const Workload& wl : workloads) {
    Session session(*wl.db);
    for (Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
      SCOPED_TRACE(std::string(QueryName(wl.query)) + " " +
                   EngineName(engine));
      size_t peak = 0;
      const QueryResult expected =
          Reference(session, engine, wl.query, &peak);
      ASSERT_TRUE(expected.ok());
      ASSERT_GT(peak, 0u);
      const size_t budget = std::max<size_t>(1, peak / 4);

      for (size_t threads : {size_t{1}, size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        // The PR 6 baseline: same budget, no spill -> the budget trip is
        // fatal. (Serial runs trip deterministically; parallel ones race
        // the trip against completion, so only the serial case asserts.)
        QueryOptions fail_opt;
        fail_opt.threads = threads;
        fail_opt.memory_budget = budget;
        PreparedQuery fail_only = session.Prepare(engine, wl.query, fail_opt);
        if (threads == 1) {
          EXPECT_EQ(fail_only.Execute().status,
                    ExecStatus::kResourceExhausted);
        }

        // Spill-enabled: completes, byte-identical, actually hit disk —
        // and every baseline (run-local memory, process governor, spill
        // directory) is restored afterwards.
        const size_t live_before = MemPool::live_bytes();
        const size_t gov_before = ResourceGovernor::Global().in_use();
        const size_t dir_before = SpillDirEntries();
        QueryOptions spill_opt = fail_opt;
        spill_opt.spill = true;
        PreparedQuery spilled = session.Prepare(engine, wl.query, spill_opt);
        const QueryResult got = spilled.Execute();
        EXPECT_EQ(got, expected);
        if (threads == 1) {
          // Serial pressure is deterministic: the quarter-budget run MUST
          // have spilled. (Parallel spill volume races the allocators.)
          EXPECT_GT(got.spilled_bytes, 0u);
        }
        EXPECT_EQ(MemPool::live_bytes(), live_before);
        EXPECT_EQ(ResourceGovernor::Global().in_use(), gov_before);
        EXPECT_EQ(SpillDirEntries(), dir_before)
            << "leftover spill files in " << SpillDir();
      }
    }
  }
}

TEST(SpillTest, MidSpillFaultRestoresEveryBaseline) {
  SpillDir();
  Session session(TpchDb());
  for (Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
    SCOPED_TRACE(EngineName(engine));
    size_t peak = 0;
    const QueryResult expected =
        Reference(session, engine, Query::kQ9, &peak);
    ASSERT_TRUE(expected.ok());

    for (const char* point : {"spill.open", "spill.write", "spill.read"}) {
      SCOPED_TRACE(point);
      FaultInjector armed;
      armed.Arm(point, FaultSpec{FaultAction::kThrowBadAlloc, 1});
      QueryOptions opt;
      opt.threads = 1;
      opt.memory_budget = std::max<size_t>(1, peak / 4);
      opt.spill = true;
      opt.fault = &armed;
      PreparedQuery q = session.Prepare(engine, Query::kQ9, opt);

      const size_t live_before = MemPool::live_bytes();
      const size_t gov_before = ResourceGovernor::Global().in_use();
      const size_t dir_before = SpillDirEntries();
      const QueryResult got = q.Execute();
      EXPECT_EQ(armed.FiredCount(), 1u);
      EXPECT_EQ(got.status, ExecStatus::kResourceExhausted);
      EXPECT_TRUE(got.rows.empty());
      EXPECT_EQ(MemPool::live_bytes(), live_before);
      EXPECT_EQ(ResourceGovernor::Global().in_use(), gov_before);
      EXPECT_EQ(SpillDirEntries(), dir_before)
          << "mid-spill failure left temp files in " << SpillDir();
    }
  }
}

TEST(SpillTest, JoinSpillWritesFollowBytesNotBatches) {
  // The Tectorwise join build relieves spill pressure where its
  // materialize pool would grow a chunk (and once more before the build
  // takes its arena), so spill writes follow the bytes it stages, not the
  // build-side batch count — at vector size 1 a batch is a single row.
  SpillDir();
  Session session(TpchDb());
  size_t peak = 0;
  const QueryResult expected =
      Reference(session, Engine::kTectorwise, Query::kQ3, &peak);
  ASSERT_TRUE(expected.ok());
  constexpr size_t kChunkBytes = size_t{1} << 20;  // MemPool's default
  constexpr size_t kThreads = 1;
  for (size_t vector_size : {size_t{256}, size_t{1}}) {
    SCOPED_TRACE("vector_size=" + std::to_string(vector_size));
    QueryOptions opt;
    opt.threads = kThreads;
    opt.vector_size = vector_size;
    opt.memory_budget = std::max<size_t>(1, peak / 4);
    opt.spill = true;
    opt.trace = runtime::TraceLevel::kSpans;
    PreparedQuery q = session.Prepare(Engine::kTectorwise, Query::kQ3, opt);
    const QueryResult got = q.Execute();
    EXPECT_EQ(got, expected);
    EXPECT_GT(got.spilled_bytes, 0u);
    ASSERT_NE(got.trace, nullptr);

    // Per join (a site with a build span): spill writes and their bytes.
    std::map<uint32_t, std::pair<size_t, size_t>> writes;
    for (const runtime::TraceSpan& span : got.trace->Spans()) {
      if (span.name != "spill.write" ||
          !got.trace->node_telemetry().HasSpan(span.site))
        continue;
      writes[span.site].first += 1;
      writes[span.site].second += span.tuples;
    }
    EXPECT_FALSE(writes.empty());
    for (const auto& [site, w] : writes) {
      SCOPED_TRACE("site=" + std::to_string(site));
      EXPECT_LE(w.first, w.second / kChunkBytes + kThreads);
    }
  }
}

TEST(SpillTest, SpillLimitBoundsDiskUse) {
  SpillDir();
  Session session(TpchDb());
  size_t peak = 0;
  const QueryResult expected =
      Reference(session, Engine::kTyper, Query::kQ9, &peak);
  ASSERT_TRUE(expected.ok());

  // A spill-enabled run whose spill LIMIT is tiny fails like a memory trip
  // (disk is a resource too) — and still cleans up.
  QueryOptions opt;
  opt.threads = 1;
  opt.memory_budget = std::max<size_t>(1, peak / 4);
  opt.spill = true;
  opt.spill_limit = 1024;  // far below what the run needs to stage
  PreparedQuery q = session.Prepare(Engine::kTyper, Query::kQ9, opt);
  const size_t dir_before = SpillDirEntries();
  const QueryResult got = q.Execute();
  EXPECT_EQ(got.status, ExecStatus::kResourceExhausted);
  EXPECT_EQ(SpillDirEntries(), dir_before);
}

TEST(DegradationTest, LadderSurvivesOnSpillRung) {
  SpillDir();
  const Workload workloads[] = {
      {&TpchDb(), Query::kQ9},
      {&SsbDb(), Query::kSsbQ41},
  };
  for (const Workload& wl : workloads) {
    Session session(*wl.db);
    for (Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
      SCOPED_TRACE(std::string(QueryName(wl.query)) + " " +
                   EngineName(engine));
      size_t peak = 0;
      const QueryResult expected =
          Reference(session, engine, wl.query, &peak);
      ASSERT_TRUE(expected.ok());

      // Prepared WITHOUT spill, budget far under peak: Execute() fails,
      // the ladder's rung 1 turns spill on and survives.
      QueryOptions opt;
      opt.threads = 1;
      opt.memory_budget = std::max<size_t>(1, peak / 4);
      PreparedQuery q = session.Prepare(engine, wl.query, opt);
      ASSERT_EQ(q.Execute().status, ExecStatus::kResourceExhausted);

      const QueryResult got = q.ExecuteWithDegradation();
      EXPECT_EQ(got, expected);
      EXPECT_EQ(got.degraded_rung, 1);
      EXPECT_GT(got.spilled_bytes, 0u);

      // The descent is on the record.
      const std::string explain = q.ExplainDegradation();
      EXPECT_NE(explain.find("rung 0 (as prepared): runs=1 ok=0"),
                std::string::npos)
          << explain;
      EXPECT_NE(explain.find("rung 1 (spill): runs=1 ok=1"),
                std::string::npos)
          << explain;
    }
  }
}

TEST(DegradationTest, UndegradedRunStaysOnRungZero) {
  Session session(TpchDb());
  QueryOptions opt;
  opt.threads = 1;
  PreparedQuery q = session.Prepare(Engine::kTyper, Query::kQ3, opt);
  const QueryResult direct = q.Execute();
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.degraded_rung, 0);

  const QueryResult got = q.ExecuteWithDegradation();
  EXPECT_EQ(got, direct);
  EXPECT_EQ(got.degraded_rung, 0);
  EXPECT_EQ(got.spilled_bytes, 0u);
}

TEST(DegradationTest, ExhaustedLadderReturnsMostDegradedFailure) {
  SpillDir();
  Session session(TpchDb());
  size_t peak = 0;
  const QueryResult expected =
      Reference(session, Engine::kTyper, Query::kQ9, &peak);
  ASSERT_TRUE(expected.ok());

  // Budget under peak AND a tiny spill limit: every rung fails (spilling
  // trips the disk bound, thread/vector reductions cannot shrink the
  // resident build below a quarter of peak). The ladder runs dry and
  // reports the most degraded attempt.
  QueryOptions opt;
  opt.threads = 8;
  opt.memory_budget = std::max<size_t>(1, peak / 8);
  opt.spill_limit = 1024;
  PreparedQuery q = session.Prepare(Engine::kTyper, Query::kQ9, opt);
  const QueryResult got = q.ExecuteWithDegradation();
  EXPECT_EQ(got.status, ExecStatus::kResourceExhausted);
  EXPECT_EQ(got.degraded_rung, 3);
  EXPECT_TRUE(got.rows.empty());
}

TEST(DegradationTest, DisabledRungsAreSkipped) {
  SpillDir();
  Session session(TpchDb());
  size_t peak = 0;
  const QueryResult expected =
      Reference(session, Engine::kTyper, Query::kQ9, &peak);
  ASSERT_TRUE(expected.ok());

  QueryOptions opt;
  opt.threads = 1;
  opt.memory_budget = std::max<size_t>(1, peak / 4);
  PreparedQuery q = session.Prepare(Engine::kTyper, Query::kQ9, opt);

  // Spill disallowed, single-threaded prepare: only rung 3 remains after
  // rung 0, and without spill it cannot shrink the build below budget —
  // the failure surfaces from rung 3, never having touched disk.
  DegradationPolicy no_spill;
  no_spill.allow_spill = false;
  const QueryResult got = q.ExecuteWithDegradation(no_spill);
  EXPECT_EQ(got.status, ExecStatus::kResourceExhausted);
  EXPECT_EQ(got.degraded_rung, 3);
  EXPECT_EQ(got.spilled_bytes, 0u);
}

TEST(RetryTest, TotalTimeoutBoundsAttemptsAndSleeps) {
  Session session(TpchDb());
  size_t peak = 0;
  const QueryResult expected =
      Reference(session, Engine::kTyper, Query::kQ3, &peak);
  ASSERT_TRUE(expected.ok());

  // Always-failing configuration (budget trip, no spill): an unbounded
  // policy would sleep ~50 ms between each of 50 attempts. The 300 ms
  // total budget must cut that off and still return the FINAL attempt's
  // transient status, not some synthetic timeout.
  QueryOptions opt;
  opt.threads = 1;
  opt.memory_budget = std::max<size_t>(1, peak / 8);
  PreparedQuery q = session.Prepare(Engine::kTyper, Query::kQ3, opt);

  // Calibrate one failing attempt on this box/build (sanitizer builds on
  // the shared core can take hundreds of ms per attempt) so the ceiling
  // scales with attempt cost instead of assuming a wall-clock speed.
  const auto c0 = std::chrono::steady_clock::now();
  ASSERT_EQ(q.Execute().status, ExecStatus::kResourceExhausted);
  const auto attempt_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - c0)
          .count();

  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = std::chrono::milliseconds(50);
  policy.max_backoff = std::chrono::milliseconds(50);
  policy.total_timeout = std::chrono::milliseconds(300);
  const auto start = std::chrono::steady_clock::now();
  const QueryResult got = q.ExecuteWithRetry(policy);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // The final attempt's own result comes back: its budget trip — or, if
  // the wall-clock budget lands mid-attempt, the deadline trip. Never a
  // success, never kCancelled.
  EXPECT_TRUE(got.status == ExecStatus::kResourceExhausted ||
              got.status == ExecStatus::kDeadlineExceeded)
      << "status=" << static_cast<int>(got.status);
  // Budget + a handful of attempt tails, far below the ~2.5 s of sleep
  // alone (49 x 50 ms) an unbounded schedule would add on top of 50
  // attempts' work.
  EXPECT_LT(elapsed.count(), 300 + 6 * std::max<int64_t>(attempt_ms, 50) + 500);
}

TEST(RetryTest, UnboundedPolicyStillReturnsFirstSuccess) {
  Session session(TpchDb());
  QueryOptions opt;
  opt.threads = 1;
  PreparedQuery q = session.Prepare(Engine::kTyper, Query::kQ3, opt);
  const QueryResult expected = q.Execute();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(q.ExecuteWithRetry(), expected);
}

}  // namespace
}  // namespace vcq
