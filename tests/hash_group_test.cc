#include "tectorwise/hash_group.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/cancel.h"
#include "runtime/mem_pool.h"
#include "runtime/pre_aggregation.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/worker_pool.h"
#include "tectorwise/steps.h"

namespace vcq::tectorwise {
namespace {

using runtime::Char;
using runtime::Relation;

struct GroupConfig {
  size_t vector_size;
  size_t threads;
  size_t cardinality;  // distinct groups
};

class HashGroupTest : public ::testing::TestWithParam<GroupConfig> {};

TEST_P(HashGroupTest, SumAndCountMatchReference) {
  const auto [vecsize, threads, cardinality] = GetParam();
  constexpr size_t kRows = 50000;
  Relation rel;
  {
    auto key = rel.AddColumn<int32_t>("key", kRows);
    auto val = rel.AddColumn<int64_t>("val", kRows);
    for (size_t i = 0; i < kRows; ++i) {
      key[i] = static_cast<int32_t>((i * 7919) % cardinality);
      val[i] = static_cast<int64_t>(i % 1000);
    }
  }

  ExecContext ctx;
  ctx.vector_size = vecsize;
  Scan::Shared ss(kRows, 2048);
  HashGroup::Shared gs(threads);
  std::map<int32_t, std::pair<int64_t, int64_t>> got;  // key -> (sum, count)
  std::mutex mu;
  std::vector<std::unique_ptr<Operator>> roots(threads);

  runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
    auto scan = std::make_unique<Scan>(&ss, &rel, vecsize);
    Slot* key = scan->AddColumn<int32_t>("key");
    Slot* val = scan->AddColumn<int64_t>("val");
    auto group = std::make_unique<HashGroup>(&gs, wid, threads,
                                             std::move(scan), ctx);
    const size_t k_key = group->AddKey<int32_t>(key);
    const size_t a_sum = group->AddSumAgg(val);
    const size_t a_cnt = group->AddCountAgg();
    Slot* o_key = group->AddOutput<int32_t>(k_key);
    Slot* o_sum = group->AddOutput<int64_t>(a_sum);
    Slot* o_cnt = group->AddOutput<int64_t>(a_cnt);
    size_t n;
    while ((n = group->Next()) != kEndOfStream) {
      std::lock_guard<std::mutex> lock(mu);
      for (size_t i = 0; i < n; ++i) {
        const int32_t k = Get<int32_t>(o_key)[i];
        ASSERT_EQ(got.count(k), 0u) << "duplicate group " << k;
        got[k] = {Get<int64_t>(o_sum)[i], Get<int64_t>(o_cnt)[i]};
      }
    }
    roots[wid] = std::move(group);
  });

  std::map<int32_t, std::pair<int64_t, int64_t>> ref;
  for (size_t i = 0; i < kRows; ++i) {
    auto& [sum, count] = ref[static_cast<int32_t>((i * 7919) % cardinality)];
    sum += static_cast<int64_t>(i % 1000);
    count += 1;
  }
  EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HashGroupTest,
    ::testing::Values(GroupConfig{1024, 1, 4}, GroupConfig{1024, 1, 10000},
                      GroupConfig{16, 1, 997}, GroupConfig{1024, 4, 4},
                      GroupConfig{1024, 4, 10000}, GroupConfig{511, 3, 997},
                      GroupConfig{1024, 8, 40000}));

// Cardinalities far above the local table's capacity: every worker
// flushes many times (at batch boundaries, so the table may overshoot by
// one batch), and the merge combines the flushed rows. Two rows per key,
// adjacent ("clustered", like lineitem by orderkey) or a full cardinality
// apart ("scattered").
struct OverflowConfig {
  size_t cardinality;
  bool clustered;
  size_t threads;
  size_t vector_size;
};

using GroupRows = std::vector<std::tuple<int64_t, int64_t, int64_t>>;

const Relation& OverflowInput(size_t cardinality, bool clustered) {
  static std::map<std::pair<size_t, bool>, std::unique_ptr<Relation>> cache;
  std::unique_ptr<Relation>& rel = cache[{cardinality, clustered}];
  if (rel == nullptr) {
    rel = std::make_unique<Relation>();
    const size_t rows = 2 * cardinality;
    auto key = rel->AddColumn<int64_t>("key", rows);
    auto val = rel->AddColumn<int64_t>("val", rows);
    for (size_t i = 0; i < rows; ++i) {
      key[i] = clustered ? static_cast<int64_t>(i / 2)
                         : static_cast<int64_t>((i * 7919) % cardinality);
      val[i] = static_cast<int64_t>(i % 1000);
    }
  }
  return *rel;
}

GroupRows OverflowReference(const Relation& rel) {
  const auto keys = rel.Col<int64_t>("key");
  const auto vals = rel.Col<int64_t>("val");
  std::map<int64_t, std::pair<int64_t, int64_t>> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto& [sum, count] = ref[keys[i]];
    sum += vals[i];
    count += 1;
  }
  GroupRows out;
  for (const auto& [key, agg] : ref)
    out.emplace_back(key, agg.first, agg.second);
  return out;
}

/// Groups `rel` by key (sum, count) on `threads` workers; `peak_live`
/// receives the largest local directory occupancy of any worker and
/// `flushed` the rows the merge read.
GroupRows GroupOverflow(const Relation& rel, size_t threads,
                        const ExecContext& ctx, size_t* peak_live,
                        size_t* flushed) {
  Scan::Shared ss(rel.tuple_count(),
                  std::max<size_t>(ctx.vector_size, 16384));
  HashGroup::Shared gs(threads);
  GroupRows got;
  std::mutex mu;
  std::vector<std::unique_ptr<HashGroup>> groups(threads);
  runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
    auto scan = std::make_unique<Scan>(&ss, &rel, ctx.vector_size);
    Slot* key = scan->AddColumn<int64_t>("key");
    Slot* val = scan->AddColumn<int64_t>("val");
    groups[wid] = std::make_unique<HashGroup>(&gs, wid, threads,
                                              std::move(scan), ctx);
    HashGroup& group = *groups[wid];
    Slot* o_key = group.AddOutput<int64_t>(group.AddKey<int64_t>(key));
    Slot* o_sum = group.AddOutput<int64_t>(group.AddSumAgg(val));
    Slot* o_cnt = group.AddOutput<int64_t>(group.AddCountAgg());
    size_t n;
    while ((n = group.Next()) != kEndOfStream) {
      std::lock_guard<std::mutex> lock(mu);
      for (size_t i = 0; i < n; ++i) {
        got.emplace_back(Get<int64_t>(o_key)[i], Get<int64_t>(o_sum)[i],
                         Get<int64_t>(o_cnt)[i]);
      }
    }
  });
  *flushed = 0;
  for (const auto& group : groups) {
    const runtime::LocalGroups* local = group->local_groups();
    if (local == nullptr) continue;  // this worker saw no input batch
    EXPECT_EQ(local->directory().capacity(),
              2 * runtime::kLocalGroupCapacity)
        << "the local directory is fixed-size";
    *peak_live = std::max(*peak_live, local->peak_live());
    for (size_t p = 0; p < HashGroup::kPartitions; ++p)
      *flushed += local->rows(p);
  }
  std::sort(got.begin(), got.end());
  return got;
}

class HashGroupOverflowTest
    : public ::testing::TestWithParam<OverflowConfig> {};

TEST_P(HashGroupOverflowTest, MatchesReferenceWithBoundedDirectory) {
  const auto [cardinality, clustered, threads, vecsize] = GetParam();
  const Relation& rel = OverflowInput(cardinality, clustered);
  static std::map<std::pair<size_t, bool>, GroupRows> refs;
  GroupRows& ref = refs[{cardinality, clustered}];
  if (ref.empty()) ref = OverflowReference(rel);

  ExecContext ctx;
  ctx.vector_size = vecsize;
  size_t peak_live = 0;
  size_t flushed = 0;
  EXPECT_EQ(GroupOverflow(rel, threads, ctx, &peak_live, &flushed), ref);
  // Flushes happen at batch boundaries: at most one batch of overshoot.
  EXPECT_LE(peak_live, runtime::kLocalGroupCapacity + vecsize);
  EXPECT_GE(flushed, cardinality);
  if (!clustered && threads == 1) {
    EXPECT_GT(flushed, cardinality);
  }
}

std::vector<OverflowConfig> OverflowConfigs() {
  std::vector<OverflowConfig> configs;
  for (size_t cardinality : {size_t{100000}, size_t{1000000}})
    for (bool clustered : {true, false})
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}})
        for (size_t vecsize : {size_t{64}, size_t{1024}, size_t{65536}})
          configs.push_back({cardinality, clustered, threads, vecsize});
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Overflow, HashGroupOverflowTest,
                         ::testing::ValuesIn(OverflowConfigs()));

TEST(HashGroupSpillTest, SpilledRunEqualsInMemoryAndRestoresBaselines) {
  namespace fs = std::filesystem;
  const Relation& rel = OverflowInput(100000, false);
  size_t peak_live = 0;
  size_t flushed = 0;
  const GroupRows expected =
      GroupOverflow(rel, 1, ExecContext{}, &peak_live, &flushed);
  const fs::path base = fs::temp_directory_path() /
                        ("vcq-hash-group-spill-" + std::to_string(::getpid()));
  fs::create_directories(base);
  ::setenv("VCQ_SPILL_DIR", base.c_str(), 1);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const size_t live_before = runtime::MemPool::live_bytes();
    const size_t gov_before = runtime::ResourceGovernor::Global().in_use();
    std::string dir;
    {
      // The budget trips after several flushes: 200k rows of 32 bytes
      // reach 2 MiB of blocks a few flushes into the scan.
      runtime::CancelToken token;
      runtime::QueryLedger ledger(2 << 20, &token);
      ledger.EnableSpillMode();
      runtime::SpillManager spill(0, nullptr, &token);
      ExecContext ctx;
      ctx.cancel = &token;
      ctx.ledger = &ledger;
      ctx.spill = &spill;
      EXPECT_EQ(GroupOverflow(rel, threads, ctx, &peak_live, &flushed),
                expected);
      EXPECT_FALSE(token.Interrupted());
      EXPECT_GT(spill.spilled_bytes(), 0u);
      dir = spill.dir();
      ASSERT_FALSE(dir.empty());
    }
    EXPECT_FALSE(fs::exists(dir)) << "spill files left in " << dir;
    EXPECT_EQ(runtime::MemPool::live_bytes(), live_before);
    EXPECT_EQ(runtime::ResourceGovernor::Global().in_use(), gov_before);
  }
  ::unsetenv("VCQ_SPILL_DIR");
  fs::remove_all(base);
}

TEST(HashGroupCompositeTest, CompositeKeysWithChars) {
  constexpr size_t kRows = 10000;
  Relation rel;
  {
    auto tag = rel.AddColumn<Char<9>>("tag", kRows);
    auto year = rel.AddColumn<int32_t>("year", kRows);
    auto val = rel.AddColumn<int64_t>("val", kRows);
    const char* tags[] = {"MFGR#1201", "MFGR#1202", "MFGR#1310"};
    for (size_t i = 0; i < kRows; ++i) {
      tag[i] = Char<9>::From(tags[i % 3]);
      year[i] = static_cast<int32_t>(1992 + (i % 7));
      val[i] = static_cast<int64_t>(i);
    }
  }
  ExecContext ctx;
  const size_t threads = 4;
  Scan::Shared ss(kRows, 512);
  HashGroup::Shared gs(threads);
  std::map<std::pair<std::string, int32_t>, int64_t> got;
  std::mutex mu;
  std::vector<std::unique_ptr<Operator>> roots(threads);
  runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
    auto scan = std::make_unique<Scan>(&ss, &rel, ctx.vector_size);
    Slot* tag = scan->AddColumn<Char<9>>("tag");
    Slot* year = scan->AddColumn<int32_t>("year");
    Slot* val = scan->AddColumn<int64_t>("val");
    auto group = std::make_unique<HashGroup>(&gs, wid, threads,
                                             std::move(scan), ctx);
    const size_t k_tag = group->AddKey<Char<9>>(tag);
    const size_t k_year = group->AddKey<int32_t>(year);
    const size_t a_sum = group->AddSumAgg(val);
    Slot* o_tag = group->AddOutput<Char<9>>(k_tag);
    Slot* o_year = group->AddOutput<int32_t>(k_year);
    Slot* o_sum = group->AddOutput<int64_t>(a_sum);
    size_t n;
    while ((n = group->Next()) != kEndOfStream) {
      std::lock_guard<std::mutex> lock(mu);
      for (size_t i = 0; i < n; ++i) {
        got[{std::string(Get<Char<9>>(o_tag)[i].View()),
             Get<int32_t>(o_year)[i]}] = Get<int64_t>(o_sum)[i];
      }
    }
    roots[wid] = std::move(group);
  });

  std::map<std::pair<std::string, int32_t>, int64_t> ref;
  const char* tags[] = {"MFGR#1201", "MFGR#1202", "MFGR#1310"};
  for (size_t i = 0; i < kRows; ++i)
    ref[{tags[i % 3], static_cast<int32_t>(1992 + (i % 7))}] +=
        static_cast<int64_t>(i);
  EXPECT_EQ(got, ref);
  EXPECT_EQ(got.size(), 21u);
}

TEST(HashGroupEdgeTest, EmptyInputProducesNoGroups) {
  Relation rel;
  rel.AddColumn<int32_t>("key", 0);
  rel.AddColumn<int64_t>("val", 0);
  ExecContext ctx;
  Scan::Shared ss(0, 512);
  HashGroup::Shared gs(1);
  auto scan = std::make_unique<Scan>(&ss, &rel, ctx.vector_size);
  Slot* key = scan->AddColumn<int32_t>("key");
  Slot* val = scan->AddColumn<int64_t>("val");
  HashGroup group(&gs, 0, 1, std::move(scan), ctx);
  group.AddKey<int32_t>(key);
  group.AddSumAgg(val);
  EXPECT_EQ(group.Next(), kEndOfStream);
}

}  // namespace
}  // namespace vcq::tectorwise
