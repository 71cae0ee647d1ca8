#include "runtime/block_cache.h"

#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/resource.h>

#include <cstring>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "api/vcq.h"
#include "datagen/tpch.h"
#include "runtime/fault_injector.h"
#include "runtime/mem_pool.h"
#include "runtime/resource_governor.h"

// The warm-memory contract of runtime::BlockCache:
//  - a block given back is handed out again, to a request of at least
//    half its capacity;
//  - cached bytes never exceed governor.peak() − governor.in_use(), also
//    right after ResetPeak lowers the peak; Trim() empties the cache;
//  - concurrent Take/Give is race-free (TSan in CI);
//  - an injected allocation failure with a warm cache leaves
//    MemPool::live_bytes(), the governor and cached_bytes() consistent;
//  - warm re-executions of Q9 and Q18 reuse the first execution's
//    memory: once the bound has settled, a run takes under a tenth of a
//    cold run's minor page faults, with the same result.

namespace vcq {
namespace {

using runtime::Block;
using runtime::BlockCache;
using runtime::Database;
using runtime::ExecStatus;
using runtime::FaultAction;
using runtime::FaultInjector;
using runtime::FaultSpec;
using runtime::MemPool;
using runtime::QueryLedger;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::ResourceGovernor;

constexpr size_t kMiB = size_t{1} << 20;

/// A governor whose high-water mark is `peak` bytes, with nothing in use.
void RaisePeak(ResourceGovernor& governor, size_t peak) {
  governor.Charge(peak);
  governor.Uncharge(peak);
}

void ExpectBound(const BlockCache& cache, const ResourceGovernor& governor) {
  EXPECT_LE(cache.cached_bytes() + governor.in_use(), governor.peak());
}

TEST(BlockCacheTest, GivenBlocksAreReused) {
  ResourceGovernor governor;
  RaisePeak(governor, 4 * kMiB);
  BlockCache cache(&governor);

  Block a = cache.Take(kMiB);
  ASSERT_NE(a.data(), nullptr);
  EXPECT_EQ(a.capacity(), kMiB);
  std::byte* const first = a.data();
  a.Reset();
  EXPECT_EQ(cache.cached_bytes(), kMiB);

  Block b = cache.Take(kMiB);
  EXPECT_EQ(b.data(), first);
  EXPECT_EQ(cache.cached_bytes(), 0u);
  b.Reset();

  // A request of more than half a cached block's capacity takes it whole;
  // a smaller one gets a block of its own.
  Block c = cache.Take(kMiB / 2 + 1);
  EXPECT_EQ(c.data(), first);
  EXPECT_EQ(c.capacity(), kMiB);
  c.Reset();
  Block d = cache.Take(kMiB / 2);
  EXPECT_NE(d.data(), first);
  EXPECT_EQ(d.capacity(), kMiB / 2);
  EXPECT_EQ(cache.cached_bytes(), kMiB);

  // Moving a block moves ownership: one give back, not two.
  Block e = std::move(d);
  EXPECT_EQ(d.data(), nullptr);
  e = Block{};
  EXPECT_EQ(cache.cached_bytes(), kMiB + kMiB / 2);

  EXPECT_EQ(cache.Take(0).data(), nullptr);
}

TEST(BlockCacheTest, CachedBytesStayUnderPeakMinusInUse) {
  ResourceGovernor governor;
  RaisePeak(governor, 4 * kMiB);
  BlockCache cache(&governor);
  {
    std::vector<Block> blocks;
    for (int i = 0; i < 6; ++i) blocks.push_back(cache.Take(kMiB));
  }
  // Six blocks came back; only the peak's worth is kept.
  EXPECT_EQ(cache.cached_bytes(), 4 * kMiB);
  ExpectBound(cache, governor);

  // Memory in use shrinks the room. A request no cached block serves
  // within 2x needs a new block, which would not fit: the first block the
  // bound frees serves it instead, and the rest are freed.
  governor.Charge(3 * kMiB);
  Block small = cache.Take(kMiB / 4);
  EXPECT_EQ(small.capacity(), kMiB);
  EXPECT_EQ(cache.cached_bytes(), 0u);
  governor.Charge(kMiB / 4);
  ExpectBound(cache, governor);
  governor.Uncharge(kMiB / 4);
  small.Reset();
  EXPECT_EQ(cache.cached_bytes(), kMiB);
  ExpectBound(cache, governor);

  // A fresh allocation frees cached blocks first so it fits.
  governor.Uncharge(3 * kMiB);
  cache.Take(kMiB).Reset();
  {
    std::vector<Block> blocks;
    for (int i = 0; i < 4; ++i) blocks.push_back(cache.Take(kMiB));
  }
  EXPECT_EQ(cache.cached_bytes(), 4 * kMiB);
  Block big = cache.Take(3 * kMiB);  // no cached block fits
  governor.Charge(3 * kMiB);
  ExpectBound(cache, governor);

  // ResetPeak lowers the bound to in_use: the cache is trimmed to it.
  governor.ResetPeak();
  EXPECT_EQ(governor.peak(), 3 * kMiB);
  EXPECT_EQ(cache.cached_bytes(), 0u);
  ExpectBound(cache, governor);
  governor.Uncharge(3 * kMiB);
  big.Reset();
  EXPECT_EQ(cache.cached_bytes(), 3 * kMiB);
  ExpectBound(cache, governor);

  cache.Trim();
  EXPECT_EQ(cache.cached_bytes(), 0u);
}

TEST(BlockCacheTest, ConcurrentTakeAndGiveRunClean) {
  ResourceGovernor governor;
  RaisePeak(governor, 8 * kMiB);
  BlockCache cache(&governor);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &governor, t] {
      std::mt19937 rng(static_cast<uint32_t>(t + 1));
      std::vector<Block> held;
      for (int i = 0; i < kOps; ++i) {
        const size_t bytes = 64 + rng() % (256 << 10);
        Block b = cache.Take(bytes);
        // Every byte is this thread's until the block goes back.
        std::memset(b.data(), t, bytes);
        EXPECT_EQ(b.data()[bytes - 1], static_cast<std::byte>(t));
        if (rng() % 4 == 0) {
          governor.Charge(bytes);
          governor.Uncharge(bytes);
        }
        held.push_back(std::move(b));
        if (held.size() > 4) held.erase(held.begin());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ExpectBound(cache, governor);
  cache.Trim();
  EXPECT_EQ(cache.cached_bytes(), 0u);
}

const Database& TpchDb(double sf) {
  static const Database* small = new Database(datagen::GenerateTpch(0.01));
  static const Database* large = new Database(datagen::GenerateTpch(0.2));
  return sf < 0.1 ? *small : *large;
}

/// The process-wide invariants every run must leave behind.
void ExpectGlobalBaselines(size_t live_before, size_t gov_before) {
  const BlockCache& cache = BlockCache::Global();
  const ResourceGovernor& governor = ResourceGovernor::Global();
  EXPECT_EQ(MemPool::live_bytes(), live_before);
  EXPECT_EQ(governor.in_use(), gov_before);
  ExpectBound(cache, governor);
}

TEST(BlockCacheFaultTest, InjectedGrowFailureWithWarmCacheStaysConsistent) {
  // Warm the process-wide cache with a join-heavy query first.
  Session session(TpchDb(0.01));
  QueryOptions warm_opt;
  warm_opt.threads = 1;
  ASSERT_TRUE(session.Prepare(Engine::kTectorwise, Query::kQ9, warm_opt)
                  .Execute()
                  .ok());
  ASSERT_GT(BlockCache::Global().cached_bytes(), 0u);

  const size_t live_before = MemPool::live_bytes();
  const size_t gov_before = ResourceGovernor::Global().in_use();
  {
    // A pool whose second chunk fails: the first stays owned and charged.
    FaultInjector armed;
    armed.Arm("pool.grow", FaultSpec{FaultAction::kThrowBadAlloc, 2});
    QueryLedger ledger(0, nullptr);
    MemPool pool;
    pool.Bind(&ledger, &armed, "pool.grow");
    pool.Allocate(kMiB);
    EXPECT_THROW(pool.Allocate(kMiB), std::bad_alloc);
    EXPECT_EQ(pool.owned_bytes(), kMiB);
    EXPECT_EQ(MemPool::live_bytes(), live_before + kMiB);
    EXPECT_EQ(ledger.in_use(), kMiB);
    ExpectBound(BlockCache::Global(), ResourceGovernor::Global());
  }
  ExpectGlobalBaselines(live_before, gov_before);

  // The same through whole queries: a failed materialize growth and a
  // failed join-build sizing, on both engines.
  for (Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
    const char* grow = engine == Engine::kTyper ? "typer.join.materialize"
                                                : "tw.join.materialize";
    for (const char* point : {grow, "join_build.size"}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " " + point);
      FaultInjector armed;
      armed.Arm(point, FaultSpec{FaultAction::kThrowBadAlloc, 1});
      QueryOptions opt;
      opt.threads = 1;
      opt.fault = &armed;
      const QueryResult got =
          session.Prepare(engine, Query::kQ9, opt).Execute();
      EXPECT_EQ(armed.FiredCount(), 1u);
      EXPECT_EQ(got.status, ExecStatus::kResourceExhausted);
      ExpectGlobalBaselines(live_before, gov_before);
    }
  }
}

// Sanitizer allocators hand out fresh memory for every allocation (ASan
// quarantines what is freed), so page faults there measure the sanitizer,
// not the cache; sanitized builds check the results only.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(BlockCacheWarmTest, WarmReExecutionReusesTheFirstRunsMemory) {
  // SF 0.2: the bound costs each warm Q9 run about 1 MiB of fresh blocks
  // (the tables built after the peak need room while the orders build's
  // pool chunks sit idle in the cache): up to a tenth of a cold SF 0.1
  // run's faults, a few percent at SF 0.2.
  Session session(TpchDb(0.2));
  for (Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
    for (Query query : {Query::kQ9, Query::kQ18}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " " + QueryName(query));
      QueryOptions opt;
      opt.threads = 1;
      PreparedQuery q = session.Prepare(engine, query, opt);
      // Start cold: nothing cached from the previous query, nothing kept
      // by the system allocator's heap either.
      BlockCache::Global().Trim();
      malloc_trim(0);
      const long f0 = MinorFaults();
      const QueryResult first = q.Execute();
      const long f1 = MinorFaults();
      ASSERT_TRUE(first.ok());
      // The second run settles which blocks the bound keeps; the third is
      // the steady state every later execution sees.
      EXPECT_EQ(q.Execute(), first);
      const long f2 = MinorFaults();
      EXPECT_EQ(q.Execute(), first);
      const long f3 = MinorFaults();
      if (kSanitized) continue;
      EXPECT_LT(10 * (f3 - f2), f1 - f0)
          << "first run " << f1 - f0 << " faults, second " << f2 - f1
          << ", third " << f3 - f2;
    }
  }
}

}  // namespace
}  // namespace vcq
