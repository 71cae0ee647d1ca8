#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "typer/selection.h"

// typer::ForEachSelected (the branch-free selection stage ahead of a Typer
// probe) must visit exactly the rows a plain `if (pred(i)) body(i)` loop
// visits, in the same order, for any range and any selectivity.

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

}  // namespace
}  // namespace vcq::typer
