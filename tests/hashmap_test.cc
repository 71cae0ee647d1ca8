#include "runtime/hashmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "runtime/hash.h"
#include "runtime/mem_pool.h"
#include "runtime/options.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/worker_pool.h"
#include "typer/pipeline.h"

namespace vcq::runtime {
namespace {

struct TestEntry {
  Hashmap::EntryHeader header;
  int64_t key;
  int64_t value;
};

TestEntry* MakeEntry(MemPool& pool, int64_t key, int64_t value) {
  auto* e = pool.Create<TestEntry>();
  e->header.next = nullptr;
  e->header.hash = HashMurmur2(static_cast<uint64_t>(key));
  e->key = key;
  e->value = value;
  return e;
}

const TestEntry* Find(const Hashmap& ht, int64_t key) {
  const uint64_t h = HashMurmur2(static_cast<uint64_t>(key));
  for (auto* e = ht.FindChainTagged(h); e != nullptr; e = e->next) {
    const auto* te = reinterpret_cast<const TestEntry*>(e);
    if (e->hash == h && te->key == key) return te;
  }
  return nullptr;
}

TEST(HashmapTest, InsertFindRoundTrip) {
  Hashmap ht;
  ht.SetSize(1000);
  MemPool pool;
  for (int64_t k = 0; k < 1000; ++k)
    ht.InsertUnlocked(&MakeEntry(pool, k, k * 10)->header);
  for (int64_t k = 0; k < 1000; ++k) {
    const TestEntry* e = Find(ht, k);
    ASSERT_NE(e, nullptr) << "key " << k;
    EXPECT_EQ(e->value, k * 10);
  }
  EXPECT_EQ(Find(ht, 5000), nullptr);
}

TEST(HashmapTest, TagNeverProducesFalseNegatives) {
  // The Bloom tag may let non-members through (false positives are fine)
  // but must never hide an inserted key.
  Hashmap ht;
  ht.SetSize(64);  // tiny: long chains, heavily shared buckets
  MemPool pool;
  for (int64_t k = 0; k < 4096; ++k)
    ht.InsertUnlocked(&MakeEntry(pool, k, k)->header);
  for (int64_t k = 0; k < 4096; ++k)
    ASSERT_NE(Find(ht, k), nullptr) << "key " << k;
}

TEST(HashmapTest, TagFiltersMostMisses) {
  Hashmap ht;
  ht.SetSize(1 << 14);
  MemPool pool;
  for (int64_t k = 0; k < 1000; ++k)
    ht.InsertUnlocked(&MakeEntry(pool, k, k)->header);
  // With load factor << 1 and 16 tag bits, most absent keys must be
  // rejected without chain traversal.
  int filtered = 0;
  constexpr int kProbes = 10000;
  for (int64_t k = 1000000; k < 1000000 + kProbes; ++k) {
    if (ht.FindChainTagged(HashMurmur2(static_cast<uint64_t>(k))) == nullptr)
      ++filtered;
  }
  EXPECT_GT(filtered, kProbes * 9 / 10);
}

TEST(HashmapTest, DuplicateKeysChainTogether) {
  Hashmap ht;
  ht.SetSize(100);
  MemPool pool;
  for (int64_t v = 0; v < 5; ++v)
    ht.InsertUnlocked(&MakeEntry(pool, 7, v)->header);
  const uint64_t h = HashMurmur2(7);
  int matches = 0;
  for (auto* e = ht.FindChainTagged(h); e != nullptr; e = e->next) {
    if (e->hash == h && reinterpret_cast<TestEntry*>(e)->key == 7) ++matches;
  }
  EXPECT_EQ(matches, 5);
}

TEST(HashmapTest, ConcurrentInsertIsLossless) {
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20000;
  Hashmap ht;
  ht.SetSize(kThreads * kPerThread);
  std::vector<MemPool> pools(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        const int64_t key = t * kPerThread + i;
        ht.Insert(&MakeEntry(pools[t], key, key)->header);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int64_t key = 0; key < kThreads * kPerThread; ++key)
    ASSERT_NE(Find(ht, key), nullptr) << "lost key " << key;
}

TEST(HashmapTest, ClearEmptiesTable) {
  Hashmap ht;
  ht.SetSize(100);
  MemPool pool;
  ht.InsertUnlocked(&MakeEntry(pool, 1, 1)->header);
  ASSERT_NE(Find(ht, 1), nullptr);
  ht.Clear();
  EXPECT_EQ(Find(ht, 1), nullptr);
}

TEST(HashmapTest, CapacityIsPowerOfTwoAndAmple) {
  Hashmap ht;
  ht.SetSize(1000);
  EXPECT_GE(ht.capacity(), 2000u);
  EXPECT_EQ(ht.capacity() & (ht.capacity() - 1), 0u);
}

// --- JoinBuild: the one build protocol --------------------------------------

/// Materializes the rows [begin, end) of the test input (every 7th key
/// duplicates an earlier one) into small chunks carved from `pool`,
/// appended to `list`.
void AddRows(MemPool& pool, size_t begin, size_t end, EntryChunkList& list) {
  constexpr size_t kRows = 64;  // small chunks: exercise chunk boundaries
  for (size_t at = begin; at < end; at += kRows) {
    const size_t rows = std::min(kRows, end - at);
    auto* block =
        static_cast<TestEntry*>(pool.Allocate(rows * sizeof(TestEntry)));
    for (size_t k = 0; k < rows; ++k) {
      const size_t i = at + k;
      const int64_t key =
          static_cast<int64_t>(i % 7 == 0 ? i / 7 : i);  // some duplicates
      block[k].header.next = nullptr;
      block[k].header.hash = HashMurmur2(static_cast<uint64_t>(key));
      block[k].key = key;
      block[k].value = static_cast<int64_t>(i);
    }
    list.Add(reinterpret_cast<std::byte*>(block), rows);
  }
}

/// `total` rows split evenly across `workers` chunk lists.
std::vector<EntryChunkList> MakeChunkLists(MemPool& pool, size_t total,
                                           size_t workers) {
  std::vector<EntryChunkList> lists(workers);
  for (size_t w = 0; w < workers; ++w)
    AddRows(pool, w * total / workers, (w + 1) * total / workers, lists[w]);
  return lists;
}

/// Per-bucket multiset of (hash, key, value) — everything a probe can
/// observe, independent of chain order and entry placement.
std::map<size_t, std::vector<std::tuple<uint64_t, int64_t, int64_t>>>
BucketContents(const Hashmap& ht) {
  std::map<size_t, std::vector<std::tuple<uint64_t, int64_t, int64_t>>> out;
  for (size_t b = 0; b < ht.capacity(); ++b) {
    for (auto* e = Hashmap::Ptr(ht.buckets()[b].load()); e != nullptr;
         e = e->next) {
      const auto* te = reinterpret_cast<const TestEntry*>(e);
      out[b].emplace_back(e->hash, te->key, te->value);
    }
    if (out.count(b)) std::sort(out[b].begin(), out[b].end());
  }
  return out;
}

std::vector<uintptr_t> BucketTags(const Hashmap& ht) {
  std::vector<uintptr_t> tags(ht.capacity());
  for (size_t b = 0; b < ht.capacity(); ++b)
    tags[b] = ht.buckets()[b].load() & ~Hashmap::kPtrMask;
  return tags;
}

/// Serial reference: InsertUnlocked over private copies of rows [0, total)
/// of the test input, into a table sized for `total`.
struct SerialReference {
  explicit SerialReference(size_t total) {
    EntryChunkList rows;
    AddRows(pool, 0, total, rows);
    ht.SetSize(total);
    for (const auto& [base, n] : rows.chunks) {
      for (size_t k = 0; k < n; ++k) {
        ht.InsertUnlocked(reinterpret_cast<Hashmap::EntryHeader*>(
            base + k * sizeof(TestEntry)));
      }
    }
  }
  MemPool pool;
  Hashmap ht;
};

/// Runs one JoinBuild over `lists` (one per worker) and checks the table
/// against the serial reference over the same `total` rows.
void ExpectMatchesReference(std::vector<EntryChunkList> lists, size_t total) {
  const size_t threads = lists.size();
  Hashmap ht;
  JoinBuild build(&ht, threads);
  WorkerPool::Global().Run(threads, [&](size_t wid) {
    build.Run(std::move(lists[wid]), sizeof(TestEntry));
  });
  const SerialReference ref(total);
  ASSERT_EQ(ht.capacity(), ref.ht.capacity());
  EXPECT_EQ(build.entry_count(), total);
  EXPECT_EQ(BucketContents(ht), BucketContents(ref.ht));
  EXPECT_EQ(BucketTags(ht), BucketTags(ref.ht));
}

class JoinBuildTest : public ::testing::TestWithParam<size_t> {};

TEST_P(JoinBuildTest, MatchesSerialInsertReference) {
  const size_t threads = GetParam();
  constexpr size_t kTotal = 5000;
  MemPool pool;
  ExpectMatchesReference(MakeChunkLists(pool, kTotal, threads), kTotal);
}

TEST_P(JoinBuildTest, SpilledAndLiveInputMatchReference) {
  // Each worker evicts its first chunks to a spill file and keeps
  // materializing afterwards, as the engines do under memory pressure:
  // the build must read the spilled rows back into its arena alongside
  // the live ones.
  const size_t threads = GetParam();
  constexpr size_t kTotal = 5000;
  MemPool pool;
  SpillManager spill(0, nullptr, nullptr);
  std::vector<EntryChunkList> lists(threads);
  for (size_t w = 0; w < threads; ++w) {
    const size_t begin = w * kTotal / threads;
    const size_t end = (w + 1) * kTotal / threads;
    const size_t mid = begin + (end - begin) / 2;
    AddRows(pool, begin, mid, lists[w]);
    lists[w].SpillTo(spill.Create("hashmap_test"), sizeof(TestEntry));
    AddRows(pool, mid, end, lists[w]);
    ASSERT_GT(lists[w].spilled_rows, 0u);
    ASSERT_GT(lists[w].total, 0u);
  }
  ExpectMatchesReference(std::move(lists), kTotal);
}

TEST_P(JoinBuildTest, EmptyWorkerLists) {
  // Only the last worker has rows; the others publish empty lists.
  const size_t threads = GetParam();
  constexpr size_t kTotal = 1000;
  MemPool pool;
  std::vector<EntryChunkList> lists(threads);
  AddRows(pool, 0, kTotal, lists.back());
  ExpectMatchesReference(std::move(lists), kTotal);
}

TEST_P(JoinBuildTest, SegmentsShorterThanThePrefetchWindow) {
  const size_t threads = GetParam();
  for (const size_t per_worker :
       {size_t{1}, JoinBuild::kPrefetchDistance - 1,
        JoinBuild::kPrefetchDistance, JoinBuild::kPrefetchDistance + 1}) {
    MemPool pool;
    ExpectMatchesReference(
        MakeChunkLists(pool, per_worker * threads, threads),
        per_worker * threads);
  }
}

TEST_P(JoinBuildTest, EmptyBuildSide) {
  const size_t threads = GetParam();
  Hashmap ht;
  JoinBuild build(&ht, threads);
  WorkerPool::Global().Run(threads, [&](size_t) {
    build.Run(EntryChunkList{}, sizeof(TestEntry));
  });
  EXPECT_EQ(build.entry_count(), 0u);
  EXPECT_EQ(ht.FindChainTagged(HashMurmur2(7)), nullptr);
}

TEST_P(JoinBuildTest, EveryChainEntryLiesInTheArena) {
  const size_t threads = GetParam();
  constexpr size_t kTotal = 3000;
  MemPool pool;
  const auto lists = MakeChunkLists(pool, kTotal, threads);
  Hashmap ht;
  JoinBuild build(&ht, threads);
  WorkerPool::Global().Run(threads, [&](size_t wid) {
    build.Run(lists[wid], sizeof(TestEntry));
  });
  // Probes never touch the materialize chunks: every entry was copied.
  const std::byte* arena = build.arena();
  ASSERT_NE(arena, nullptr);
  size_t seen = 0;
  for (size_t b = 0; b < ht.capacity(); ++b) {
    for (auto* e = Hashmap::Ptr(ht.buckets()[b].load()); e != nullptr;
         e = e->next) {
      ++seen;
      const auto* p = reinterpret_cast<const std::byte*>(e);
      ASSERT_GE(p, arena);
      ASSERT_LT(p, arena + kTotal * sizeof(TestEntry));
    }
  }
  EXPECT_EQ(seen, kTotal);
}

TEST_P(JoinBuildTest, EngineReleasesMaterializeMemoryAndChargesTheArena) {
  // After the build the materialize pools are gone — MemPool::live_bytes()
  // is back at its pre-materialize value — and the run's ledger holds
  // exactly the directory plus the entry arena, until the table dies.
  const size_t threads = GetParam();
  constexpr size_t kEntries = 200000;

  QueryLedger ledger(0, nullptr);
  QueryOptions opt;
  opt.threads = threads;
  opt.ledger = &ledger;
  const size_t before = MemPool::live_bytes();
  {
    typer::JoinTable<TestEntry> table(opt);
    table.Build(kEntries, [](size_t i, auto& emit) {
      emit(static_cast<int64_t>(i), static_cast<int64_t>(i) * 3);
    });
    EXPECT_EQ(MemPool::live_bytes(), before)
        << "the build must release its materialize-phase chunks";
    EXPECT_EQ(ledger.in_use(), table.ht.capacity() * sizeof(uintptr_t) +
                                   kEntries * sizeof(TestEntry));
    EXPECT_EQ(table.size(), kEntries);
    for (int64_t key : {int64_t{0}, int64_t{12345}, int64_t{199999}}) {
      const TestEntry* e = table.Find(key);
      ASSERT_NE(e, nullptr) << "key " << key;
      EXPECT_EQ(e->header.hash, typer::KeyHash(key));
      EXPECT_EQ(e->value, key * 3);
    }
    EXPECT_EQ(table.Find(int64_t{kEntries}), nullptr);
  }
  EXPECT_EQ(ledger.in_use(), 0u);
}

TEST_P(JoinBuildTest, EngineBuildsEmptyAndSubMorselInputs) {
  // Build sides smaller than one morsel leave most workers without a
  // claim: an empty input builds an empty table, and a 100-row input
  // (one morsel of the default 16384-row grain) finds every key.
  const size_t threads = GetParam();
  for (const size_t rows : {size_t{0}, size_t{100}}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    QueryOptions opt;
    opt.threads = threads;
    const size_t before = MemPool::live_bytes();
    {
      typer::JoinTable<TestEntry> table(opt);
      table.Build(rows, [](size_t i, auto& emit) {
        emit(static_cast<int64_t>(i) * 7, static_cast<int64_t>(i));
      });
      EXPECT_EQ(table.size(), rows);
      for (size_t i = 0; i < rows; ++i) {
        const TestEntry* e = table.Find(static_cast<int64_t>(i) * 7);
        ASSERT_NE(e, nullptr) << "row " << i;
        EXPECT_EQ(e->value, static_cast<int64_t>(i));
      }
      EXPECT_EQ(table.Find(int64_t{1}), nullptr);
    }
    EXPECT_EQ(MemPool::live_bytes(), before);
  }
}

// 7 exercises uneven segment splits and CAS contention on one directory.
INSTANTIATE_TEST_SUITE_P(Threads, JoinBuildTest,
                         ::testing::Values(size_t{1}, size_t{4}, size_t{7}));

TEST(MemPoolTest, AllocationsAlignedAndDistinct) {
  MemPool pool(1024);
  void* a = pool.Allocate(10);
  void* b = pool.Allocate(10);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
}

TEST(MemPoolTest, LargeAllocationExceedingChunk) {
  MemPool pool(1024);
  void* big = pool.Allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xCD, 1 << 20);  // must be writable end to end
}

TEST(MemPoolTest, ReleaseIsIdempotent) {
  // The failure-containment invariant: Release() is called from both the
  // normal drain path and the unwind backstop, so calling it any number of
  // times must release the pool's bytes exactly once — live_bytes() lands
  // on the baseline and stays there, never underflowing.
  const size_t baseline = MemPool::live_bytes();
  MemPool pool(1024);
  pool.Allocate(4096);
  EXPECT_GT(pool.owned_bytes(), 0u);
  EXPECT_GT(MemPool::live_bytes(), baseline);
  pool.Release();
  EXPECT_EQ(pool.owned_bytes(), 0u);
  EXPECT_EQ(MemPool::live_bytes(), baseline);
  pool.Release();  // second (unwind-path) release: a no-op
  pool.Release();
  EXPECT_EQ(pool.owned_bytes(), 0u);
  EXPECT_EQ(MemPool::live_bytes(), baseline);
  // The pool is still usable after a release cycle.
  void* p = pool.Allocate(16);
  EXPECT_NE(p, nullptr);
  pool.Release();
  EXPECT_EQ(MemPool::live_bytes(), baseline);
}

TEST(MemPoolTest, ManySmallAllocationsDoNotOverlap) {
  MemPool pool(4096);
  std::vector<int64_t*> ptrs;
  for (int i = 0; i < 10000; ++i) {
    auto* p = static_cast<int64_t*>(pool.Allocate(sizeof(int64_t)));
    *p = i;
    ptrs.push_back(p);
  }
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(*ptrs[i], i);
}

}  // namespace
}  // namespace vcq::runtime
