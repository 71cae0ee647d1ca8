#include "tectorwise/compaction.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/relation.h"
#include "tectorwise/operators.h"
#include "tectorwise/primitives.h"
#include "tectorwise/primitives_simd.h"
#include "tectorwise/steps.h"

// Batch compaction: scalar <-> AVX-512 compress-store parity, the density
// threshold's boundaries at the Select compaction point, and end-to-end
// equality of Tectorwise (which always compacts) with the Typer reference
// on the full TPC-H / SSB workload across vector sizes and SIMD variants.

namespace vcq::tectorwise {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::Relation;

// ---------------------------------------------------------------------------
// Primitive parity: CompactI32/I64 == CompactCopy on random selections
// ---------------------------------------------------------------------------

std::vector<pos_t> RandomSel(size_t n, double density, uint32_t seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution pick(density);
  std::vector<pos_t> sel;
  for (size_t p = 0; p < n; ++p)
    if (pick(rng)) sel.push_back(static_cast<pos_t>(p));
  return sel;
}

class CompactParity : public ::testing::TestWithParam<double> {};

TEST_P(CompactParity, I32MatchesScalar) {
  const double density = GetParam();
  std::mt19937 rng(7);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                         size_t{17}, size_t{1000}, size_t{4096}}) {
    std::vector<int32_t> col(n);
    for (auto& x : col) x = static_cast<int32_t>(rng());
    const auto sel = RandomSel(n, density, 11 + static_cast<uint32_t>(n));
    std::vector<int32_t> scalar(sel.size() + 1, -1), vec(sel.size() + 1, -1);
    CompactCopy<int32_t>(sel.size(), sel.data(), col.data(), scalar.data());
    simd::CompactI32(sel.size(), sel.data(), col.data(), vec.data());
    for (size_t i = 0; i < sel.size(); ++i) ASSERT_EQ(scalar[i], vec[i]) << i;
  }
}

TEST_P(CompactParity, I64MatchesScalar) {
  const double density = GetParam();
  std::mt19937_64 rng(9);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{9}, size_t{1000}, size_t{4096}}) {
    std::vector<int64_t> col(n);
    for (auto& x : col) x = static_cast<int64_t>(rng());
    const auto sel = RandomSel(n, density, 13 + static_cast<uint32_t>(n));
    std::vector<int64_t> scalar(sel.size() + 1, -1), vec(sel.size() + 1, -1);
    CompactCopy<int64_t>(sel.size(), sel.data(), col.data(), scalar.data());
    simd::CompactI64(sel.size(), sel.data(), col.data(), vec.data());
    for (size_t i = 0; i < sel.size(); ++i) ASSERT_EQ(scalar[i], vec[i]) << i;
  }
}

TEST_P(CompactParity, NullSelIsContiguousCopy) {
  const size_t n = 100;
  std::vector<int32_t> col32(n);
  std::vector<int64_t> col64(n);
  for (size_t i = 0; i < n; ++i) {
    col32[i] = static_cast<int32_t>(i);
    col64[i] = static_cast<int64_t>(i) * 3;
  }
  std::vector<int32_t> out32(n);
  std::vector<int64_t> out64(n);
  simd::CompactI32(n, nullptr, col32.data(), out32.data());
  simd::CompactI64(n, nullptr, col64.data(), out64.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out32[i], col32[i]);
    ASSERT_EQ(out64[i], col64[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, CompactParity,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 0.9, 1.0));

TEST(CompactBytesTest, OddWidthRows) {
  constexpr size_t kWidth = 5;
  const size_t n = 64;
  std::vector<std::byte> col(n * kWidth);
  for (size_t i = 0; i < col.size(); ++i) col[i] = std::byte(i & 0xff);
  const std::vector<pos_t> sel = {0, 3, 7, 63};
  std::vector<std::byte> out(sel.size() * kWidth);
  CompactBytes(sel.size(), sel.data(), col.data(), kWidth, out.data());
  for (size_t k = 0; k < sel.size(); ++k) {
    for (size_t b = 0; b < kWidth; ++b)
      ASSERT_EQ(out[k * kWidth + b], col[sel[k] * kWidth + b]);
  }
}

// ---------------------------------------------------------------------------
// Select compaction point: density threshold boundaries
// ---------------------------------------------------------------------------

// Relation where value a[i] = i % period, so a < cutoff passes exactly
// `cutoff` tuples per `period` and survivors are predictable per batch.
Relation MakePeriodic(size_t n, int32_t period) {
  Relation rel;
  auto a = rel.AddColumn<int32_t>("a", n);
  auto b = rel.AddColumn<int64_t>("b", n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(i % static_cast<size_t>(period));
    b[i] = static_cast<int64_t>(i);
  }
  return rel;
}

struct DrainResult {
  std::vector<int64_t> values;  // b-column values in emission order
  size_t batches = 0;
  size_t dense_batches = 0;  // emitted without a selection vector
  size_t max_count = 0;
  size_t rows = 0;
};

DrainResult DrainSelect(const Relation& rel, const ExecContext& ctx,
                        int32_t cutoff, bool register_b = true) {
  Scan::Shared shared(rel.tuple_count(), 1u << 30 /* one morsel */);
  auto scan = std::make_unique<Scan>(&shared, &rel, ctx.vector_size);
  Slot* a = scan->AddColumn<int32_t>("a");
  Slot* b = scan->AddColumn<int64_t>("b");
  auto select = std::make_unique<Select>(std::move(scan), ctx.vector_size);
  select->AddStep(MakeSelCmp<int32_t>(ctx, a, CmpOp::kLess, cutoff));
  if (register_b) CompactColumn<int64_t>(ctx, select->compactor(), b);

  DrainResult r;
  size_t n;
  while ((n = select->Next()) != kEndOfStream) {
    const pos_t* sel = select->sel();
    ++r.batches;
    r.dense_batches += (sel == nullptr) ? 1 : 0;
    r.max_count = std::max(r.max_count, n);
    r.rows += n;
    if (!register_b) continue;
    const int64_t* col = Get<int64_t>(b);
    for (size_t k = 0; k < n; ++k)
      r.values.push_back(col[sel ? sel[k] : static_cast<pos_t>(k)]);
  }
  return r;
}

std::vector<int64_t> ReferenceValues(size_t n, int32_t period,
                                     int32_t cutoff) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int32_t>(i % static_cast<size_t>(period)) < cutoff)
      out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

ExecContext Ctx(size_t vector_size = 1024) {
  ExecContext ctx;
  ctx.vector_size = vector_size;
  return ctx;
}

TEST(SelectCompactionTest, SparseBatchesAreMergedDense) {
  // 8 survivors per 1024-tuple batch (density 1/128, below 1/64): 128
  // batches fold into one full dense vector.
  const Relation rel = MakePeriodic(128 * 1024, 128);
  const DrainResult r = DrainSelect(rel, Ctx(), 1);
  EXPECT_EQ(r.values, ReferenceValues(128 * 1024, 128, 1));
  EXPECT_EQ(r.dense_batches, r.batches);
  EXPECT_EQ(r.batches, 1u);  // 1024 survivors == exactly one full vector
  EXPECT_EQ(r.max_count, 1024u);
}

TEST(SelectCompactionTest, SingleSurvivorCompacts) {
  // One survivor in the whole input: the remainder flush at end-of-stream
  // must emit it as a dense one-tuple batch.
  Relation rel;
  auto a = rel.AddColumn<int32_t>("a", 5000);
  auto b = rel.AddColumn<int64_t>("b", 5000);
  for (size_t i = 0; i < 5000; ++i) {
    a[i] = (i == 3333) ? 0 : 1;
    b[i] = static_cast<int64_t>(i);
  }
  const DrainResult r = DrainSelect(rel, Ctx(), 1);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], 3333);
  EXPECT_EQ(r.dense_batches, 1u);
}

TEST(SelectCompactionTest, EmptyResultYieldsEndOfStream) {
  const Relation rel = MakePeriodic(4096, 64);
  const DrainResult r = DrainSelect(rel, Ctx(), 0);  // nothing passes
  EXPECT_TRUE(r.values.empty());
  EXPECT_EQ(r.batches, 0u);
}

TEST(SelectCompactionTest, DenseBatchesPassThroughUntouched) {
  // Everything passes: density 1.0 is above the threshold, so batches are
  // left alone (selection vector still present, no merged vectors).
  const Relation rel = MakePeriodic(8192, 64);
  const DrainResult r = DrainSelect(rel, Ctx(), 64);
  EXPECT_EQ(r.values, ReferenceValues(8192, 64, 64));
  EXPECT_EQ(r.dense_batches, 0u);
  EXPECT_EQ(r.batches, 8u);
}

TEST(SelectCompactionTest, ThresholdBoundaryIsStrict) {
  // kCompactionThreshold (1/64) at vector_size 1024 puts the boundary at
  // 16 survivors: 16 per batch (density == threshold) passes through, 15
  // compacts.
  ASSERT_EQ(kCompactionThreshold * 1024, 16.0);
  {
    const Relation rel = MakePeriodic(8192, 64);  // 16 survivors per batch
    const DrainResult r = DrainSelect(rel, Ctx(), 1);
    EXPECT_EQ(r.values, ReferenceValues(8192, 64, 1));
    EXPECT_EQ(r.dense_batches, 0u);
    EXPECT_EQ(r.batches, 8u);
  }
  {
    // 15 survivors per batch: below the threshold, all batches compact.
    const Relation rel = MakePeriodic(16 * 1024, 1024);
    const DrainResult r = DrainSelect(rel, Ctx(), 15);
    EXPECT_EQ(r.values, ReferenceValues(16 * 1024, 1024, 15));
    EXPECT_EQ(r.dense_batches, r.batches);
    EXPECT_EQ(r.batches, 1u);  // 240 survivors, flushed at end of stream
  }
}

TEST(SelectCompactionTest, OddVectorSizeFlushesFullAndPartialVectors) {
  // ~2 survivors per 255-tuple batch (below 255 / 64): merged into full
  // 255-row vectors plus one partial remainder at end of stream.
  const Relation rel = MakePeriodic(100'000, 128);
  const DrainResult r = DrainSelect(rel, Ctx(255), 1);
  EXPECT_EQ(r.values, ReferenceValues(100'000, 128, 1));
  EXPECT_EQ(r.dense_batches, r.batches);
  EXPECT_EQ(r.max_count, 255u);
  EXPECT_EQ(r.batches, (r.values.size() + 254) / 255);
}

TEST(SelectCompactionTest, VectorSizeOneNeverCompacts) {
  // 1/64 of a one-tuple vector is below one tuple: no batch is sparse.
  const Relation rel = MakePeriodic(4096, 64);
  const DrainResult r = DrainSelect(rel, Ctx(1), 1);
  EXPECT_EQ(r.values, ReferenceValues(4096, 64, 1));
  EXPECT_EQ(r.dense_batches, 0u);
  EXPECT_EQ(r.batches, r.values.size());
}

TEST(SelectCompactionTest, UnregisteredSelectMergesCounts) {
  // No column is read above the Select (a count(*)): sparse batches merge
  // into full counts without copying any column.
  const Relation rel = MakePeriodic(128 * 1024, 128);
  const DrainResult r = DrainSelect(rel, Ctx(), 1, /*register_b=*/false);
  EXPECT_EQ(r.rows, ReferenceValues(128 * 1024, 128, 1).size());
  EXPECT_EQ(r.batches, 1u);
  EXPECT_EQ(r.dense_batches, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: Tectorwise matches the Typer reference byte for byte
// ---------------------------------------------------------------------------

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.03));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.05));
  return *db;
}

QueryOptions TwOptions(size_t vector_size, bool simd) {
  QueryOptions opt;
  opt.threads = 2;
  opt.vector_size = vector_size;
  opt.simd = simd;
  return opt;
}

TEST(CompactionEquivalenceTest, Q3AcrossVectorSizesAndSimd) {
  const QueryResult expected =
      RunQuery(TpchDb(), Engine::kTyper, Query::kQ3, QueryOptions{});
  for (const size_t vector_size : {size_t{1}, size_t{64}, size_t{1024},
                                   size_t{4096}, size_t{65536}}) {
    for (const bool simd : {false, true}) {
      const QueryResult got = RunQuery(TpchDb(), Engine::kTectorwise,
                                       Query::kQ3, TwOptions(vector_size, simd));
      EXPECT_EQ(expected.ToString(), got.ToString())
          << "vector_size=" << vector_size << " simd=" << simd;
    }
  }
}

TEST(CompactionEquivalenceTest, AllQueriesMatchTyper) {
  auto check = [](const Database& db, Query query) {
    const QueryResult expected =
        RunQuery(db, Engine::kTyper, query, QueryOptions{});
    for (const bool simd : {false, true}) {
      const QueryResult got =
          RunQuery(db, Engine::kTectorwise, query, TwOptions(1024, simd));
      EXPECT_EQ(expected.ToString(), got.ToString())
          << QueryName(query) << " simd=" << simd;
    }
  };
  for (const Query query : TpchQueries()) check(TpchDb(), query);
  for (const Query query : SsbQueries()) check(SsbDb(), query);
}

}  // namespace
}  // namespace vcq::tectorwise
