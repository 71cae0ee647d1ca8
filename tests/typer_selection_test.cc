#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "typer/pipeline.h"

// typer::ForEachSelected (the branch-free selection stage ahead of a Typer
// probe) must visit exactly the rows a plain `if (pred(i)) body(i)` loop
// visits, in the same order, for any range and any selectivity — on its
// own and as the filter step of the kit's GroupBy.

namespace vcq::typer {
namespace {

std::vector<size_t> PlainLoop(size_t begin, size_t end,
                              const std::vector<uint8_t>& pass) {
  std::vector<size_t> rows;
  for (size_t i = begin; i < end; ++i) {
    if (pass[i] != 0) rows.push_back(i);
  }
  return rows;
}

std::vector<size_t> Selected(size_t begin, size_t end,
                             const std::vector<uint8_t>& pass) {
  std::vector<size_t> rows;
  ForEachSelected(
      begin, end, [&](size_t i) { return pass[i] != 0; },
      [&](size_t i) { rows.push_back(i); });
  return rows;
}

/// pass[i] = 1 with probability `share` (fixed seed).
std::vector<uint8_t> Pattern(size_t n, double share) {
  std::mt19937_64 rng(7);
  std::bernoulli_distribution coin(share);
  std::vector<uint8_t> pass(n);
  for (uint8_t& p : pass) p = coin(rng) ? 1 : 0;
  return pass;
}

struct Range {
  const char* name;
  size_t begin, end;
};

// kSelectBlock = 512: the ranges cover empty, shorter than one block,
// exactly one block, and several blocks that start off a block boundary
// and end mid-block.
const Range kRanges[] = {
    {"empty", 100, 100},
    {"short", 3, 3 + kSelectBlock / 4},
    {"one_block", 0, kSelectBlock},
    {"unaligned_multi_block", 77, 77 + 3 * kSelectBlock + 201},
};

TEST(ForEachSelectedTest, MatchesPlainLoopOrderAndCount) {
  const size_t n = 4 * kSelectBlock + 512;
  for (const double share : {0.0, 1.0, 0.13}) {
    const std::vector<uint8_t> pass = Pattern(n, share);
    for (const Range& r : kRanges) {
      const std::vector<size_t> expected = PlainLoop(r.begin, r.end, pass);
      EXPECT_EQ(Selected(r.begin, r.end, pass), expected)
          << r.name << " share=" << share;
      const size_t rows = r.end - r.begin;
      if (share == 0.0) {
        EXPECT_TRUE(expected.empty());
      } else if (share == 1.0) {
        EXPECT_EQ(expected.size(), rows);
      } else if (rows > kSelectBlock) {
        // Mixed within blocks: the stage's write-all, advance-some path.
        EXPECT_GT(expected.size(), rows / 20);
        EXPECT_LT(expected.size(), rows / 5);
      }
    }
  }
}

TEST(ForEachSelectedTest, PredicateSeesEveryRowOnce) {
  const Range r = kRanges[3];
  std::vector<int> seen(r.end, 0);
  ForEachSelected(
      r.begin, r.end,
      [&](size_t i) {
        ++seen[i];
        return (i % 3 == 0) & (i % 2 == 0);
      },
      [](size_t) {});
  for (size_t i = 0; i < r.end; ++i)
    EXPECT_EQ(seen[i], i >= r.begin ? 1 : 0) << "row " << i;
}

struct RowGroup {
  runtime::Hashmap::EntryHeader header;
  int64_t key;
  int64_t rows;

  void Combine(const RowGroup& o) { rows += o.rows; }
};

TEST(FilteredGroupByTest, VisitsPassingRowsInOrderAndPredicateOncePerRow) {
  // Morsels of 1000 rows start off the selection-block boundary; the last
  // one ends mid-block.
  const size_t n = 10 * kSelectBlock + 77;
  const std::vector<uint8_t> pass = Pattern(n, 0.13);
  const std::vector<size_t> expected = PlainLoop(0, n, pass);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    runtime::QueryOptions opt;
    opt.threads = threads;
    opt.morsel_grain = 1000;
    std::vector<std::atomic<int>> evaluated(n);
    std::vector<std::atomic<int>> visited(n);
    std::vector<size_t> order;  // visit order, read at one thread
    MergedGroups<RowGroup> merged = GroupBy<RowGroup>(
        opt, n,
        [&](size_t i) {
          ++evaluated[i];
          return pass[i] != 0;
        },
        [&](size_t i, auto& local) {
          ++visited[i];
          if (threads == 1) order.push_back(i);
          local.At(static_cast<int64_t>(i % 7))->rows += 1;
        });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(evaluated[i].load(), 1) << "row " << i;
      EXPECT_EQ(visited[i].load(), pass[i]) << "row " << i;
    }
    if (threads == 1) {
      EXPECT_EQ(order, expected);
    }
    std::vector<int64_t> per_key(7, 0);
    for (const size_t i : expected) ++per_key[i % 7];
    ASSERT_EQ(merged.groups.size(), 7u);
    for (const RowGroup* g : merged.groups)
      EXPECT_EQ(g->rows, per_key[static_cast<size_t>(g->key)]) << g->key;
  }
}

}  // namespace
}  // namespace vcq::typer
