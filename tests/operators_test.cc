#include "tectorwise/operators.h"

#include <gtest/gtest.h>

#include <numeric>

#include "tectorwise/steps.h"

// Tectorwise Scan/Select/Map/FixedAggregation over synthetic relations,
// parameterized over vector sizes down to 1 (the Volcano degenerate case of
// Fig. 5) and up past typical morsel boundaries.

namespace vcq::tectorwise {
namespace {

using runtime::Relation;

Relation MakeNumbers(size_t n) {
  Relation rel;
  auto a = rel.AddColumn<int32_t>("a", n);
  auto b = rel.AddColumn<int64_t>("b", n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(i % 100);
    b[i] = static_cast<int64_t>(i);
  }
  return rel;
}

class VectorSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VectorSizeTest, ScanCoversAllTuples) {
  const size_t vecsize = GetParam();
  Relation rel = MakeNumbers(10007);
  Scan::Shared shared(rel.tuple_count(), 4096);
  Scan scan(&shared, &rel, vecsize);
  Slot* b = scan.AddColumn<int64_t>("b");
  int64_t sum = 0;
  size_t total = 0;
  size_t n;
  while ((n = scan.Next()) != kEndOfStream) {
    ASSERT_LE(n, vecsize);
    const int64_t* col = Get<int64_t>(b);
    for (size_t i = 0; i < n; ++i) sum += col[i];
    total += n;
  }
  EXPECT_EQ(total, 10007u);
  EXPECT_EQ(sum, int64_t{10007} * 10006 / 2);
}

TEST_P(VectorSizeTest, SelectChainMatchesReference) {
  const size_t vecsize = GetParam();
  Relation rel = MakeNumbers(10007);
  ExecContext ctx;
  ctx.vector_size = vecsize;
  Scan::Shared shared(rel.tuple_count(), 4096);
  auto scan = std::make_unique<Scan>(&shared, &rel, vecsize);
  Slot* a = scan->AddColumn<int32_t>("a");
  Slot* b = scan->AddColumn<int64_t>("b");
  auto select = std::make_unique<Select>(std::move(scan), vecsize);
  select->AddStep(MakeSelCmp<int32_t>(ctx, a, CmpOp::kLess, 50));
  select->AddStep(MakeSelCmp<int64_t>(ctx, b, CmpOp::kGreaterEq, 1000));

  size_t count = 0;
  size_t n;
  while ((n = select->Next()) != kEndOfStream) count += n;

  size_t expected = 0;
  for (size_t i = 0; i < 10007; ++i)
    if (static_cast<int32_t>(i % 100) < 50 && i >= 1000) ++expected;
  EXPECT_EQ(count, expected);
}

TEST_P(VectorSizeTest, MapAndFixedAggregation) {
  const size_t vecsize = GetParam();
  Relation rel = MakeNumbers(5000);
  ExecContext ctx;
  ctx.vector_size = vecsize;
  Scan::Shared shared(rel.tuple_count(), 4096);
  auto scan = std::make_unique<Scan>(&shared, &rel, vecsize);
  Slot* a = scan->AddColumn<int32_t>("a");
  Slot* b = scan->AddColumn<int64_t>("b");
  auto select = std::make_unique<Select>(std::move(scan), vecsize);
  select->AddStep(MakeSelCmp<int32_t>(ctx, a, CmpOp::kLess, 10));
  // `b` is read above the Select, which may merge sparse batches.
  CompactColumn<int64_t>(ctx, select->compactor(), b);
  auto map = std::make_unique<Map>(std::move(select), vecsize);
  Slot* doubled = map->AddOutput<int64_t>();
  map->AddStep(
      MakeMapAddConst<int64_t>(0, b, map->OutputData<int64_t>(doubled)));
  Slot* squared = map->AddOutput<int64_t>();
  map->AddStep(
      MakeMapMul<int64_t>(b, b, map->OutputData<int64_t>(squared)));
  FixedAggregation agg(std::move(map));
  Slot* sum_b = agg.AddSumI64(doubled);
  Slot* sum_sq = agg.AddSumI64(squared);

  size_t n;
  size_t rows = 0;
  while ((n = agg.Next()) != kEndOfStream) rows += n;
  EXPECT_EQ(rows, 1u);

  int64_t expect_b = 0, expect_sq = 0;
  for (int64_t i = 0; i < 5000; ++i) {
    if (i % 100 < 10) {
      expect_b += i;
      expect_sq += i * i;
    }
  }
  EXPECT_EQ(*Get<int64_t>(sum_b), expect_b);
  EXPECT_EQ(*Get<int64_t>(sum_sq), expect_sq);
}

INSTANTIATE_TEST_SUITE_P(Sizes, VectorSizeTest,
                         ::testing::Values(1, 2, 16, 255, 1024, 4093, 65536));

TEST(SelectTest, AllFilteredYieldsEndOfStream) {
  Relation rel = MakeNumbers(1000);
  ExecContext ctx;
  Scan::Shared shared(rel.tuple_count(), 4096);
  auto scan = std::make_unique<Scan>(&shared, &rel, 1024);
  Slot* a = scan->AddColumn<int32_t>("a");
  Select select(std::move(scan), 1024);
  select.AddStep(MakeSelCmp<int32_t>(ctx, a, CmpOp::kLess, -1));
  EXPECT_EQ(select.Next(), kEndOfStream);
  EXPECT_EQ(select.Next(), kEndOfStream);  // stable after end
}

TEST(SelectTest, EmptyRelation) {
  Relation rel = MakeNumbers(0);
  // Zero-tuple relations still have columns; add them explicitly.
  Relation rel2;
  rel2.AddColumn<int32_t>("a", 0);
  Scan::Shared shared(0, 4096);
  Scan scan(&shared, &rel2, 1024);
  scan.AddColumn<int32_t>("a");
  EXPECT_EQ(scan.Next(), kEndOfStream);
}

TEST(ScanTest, ParallelWorkersPartitionMorsels) {
  Relation rel = MakeNumbers(100000);
  Scan::Shared shared(rel.tuple_count(), 1024);
  std::atomic<int64_t> sum{0};
  runtime::WorkerPool::Global().Run(8, [&](size_t) {
    Scan scan(&shared, &rel, 512);
    Slot* b = scan.AddColumn<int64_t>("b");
    int64_t local = 0;
    size_t n;
    while ((n = scan.Next()) != kEndOfStream) {
      const int64_t* col = Get<int64_t>(b);
      for (size_t i = 0; i < n; ++i) local += col[i];
    }
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), int64_t{100000} * 99999 / 2);
}

}  // namespace
}  // namespace vcq::tectorwise
