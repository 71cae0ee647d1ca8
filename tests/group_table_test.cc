#include "typer/pipeline.h"

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
#include "runtime/hash.h"
#include "runtime/mem_pool.h"
#include "runtime/pre_aggregation.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/worker_pool.h"

// The Typer kit's GroupBy (typer/pipeline.h) with its bounded local group
// tables, and the shared pre-aggregation core (runtime/pre_aggregation.h),
// on inputs whose group count is far above the local table's capacity, so every worker flushes many times before
// the merge: results must equal a std::map reference in every key order
// and thread count, the local directory never grows, and a spilled run
// equals the in-memory one with every resource back at its baseline.

namespace vcq::typer {
namespace {

using runtime::kLocalGroupCapacity;
using runtime::QueryOptions;

struct Group {
  runtime::Hashmap::EntryHeader header;
  int64_t key;
  int64_t sum;
  int64_t count;

  void Combine(const Group& o) {
    sum += o.sum;
    count += o.count;
  }
};

using Result = std::vector<std::tuple<int64_t, int64_t, int64_t>>;

/// Two rows per key: adjacent ("clustered", like lineitem by orderkey) or
/// a full cardinality apart in a scrambled order ("scattered").
std::vector<int64_t> Keys(size_t cardinality, bool clustered) {
  std::vector<int64_t> keys(2 * cardinality);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = clustered ? static_cast<int64_t>(i / 2)
                        : static_cast<int64_t>((i * 7919) % cardinality);
  }
  return keys;
}

Result Reference(const std::vector<int64_t>& keys) {
  std::map<int64_t, std::pair<int64_t, int64_t>> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto& [sum, count] = ref[keys[i]];
    sum += static_cast<int64_t>(i % 1000);
    count += 1;
  }
  Result out;
  for (const auto& [key, agg] : ref)
    out.emplace_back(key, agg.first, agg.second);
  return out;
}

/// Morsel-parallel aggregation of `keys` (value = row index % 1000)
/// through the kit's GroupBy. `peak_live` receives the largest local
/// directory occupancy any worker reached, `flushed` the rows the merge
/// read.
Result Aggregate(const std::vector<int64_t>& keys, QueryOptions opt,
                 size_t* peak_live = nullptr, size_t* flushed = nullptr) {
  opt.morsel_grain = 4096;
  MergedGroups<Group> merged =
      GroupBy<Group>(opt, keys.size(), [&](size_t i, auto& local) {
        Group* g = local.At(keys[i]);
        g->sum += static_cast<int64_t>(i % 1000);
        g->count += 1;
      });
  std::vector<runtime::LocalGroups*> tables;
  for (const auto& local : merged.locals) {
    EXPECT_EQ(local->groups().directory().capacity(),
              2 * kLocalGroupCapacity)
        << "the local directory is fixed-size";
    if (peak_live != nullptr)
      *peak_live = std::max(*peak_live, local->groups().peak_live());
    tables.push_back(&local->groups());
  }
  if (flushed != nullptr) *flushed = runtime::FlushedRows(tables);
  Result out;
  for (const Group* g : merged.groups)
    out.emplace_back(g->key, g->sum, g->count);
  std::sort(out.begin(), out.end());
  return out;
}

struct Config {
  size_t cardinality;
  bool clustered;
  size_t threads;
};

class GroupTableOverflowTest : public ::testing::TestWithParam<Config> {};

TEST_P(GroupTableOverflowTest, MatchesReferenceWithBoundedDirectory) {
  const auto [cardinality, clustered, threads] = GetParam();
  const std::vector<int64_t> keys = Keys(cardinality, clustered);
  QueryOptions opt;
  opt.threads = threads;
  size_t peak_live = 0;
  size_t flushed = 0;
  EXPECT_EQ(Aggregate(keys, opt, &peak_live, &flushed), Reference(keys));
  EXPECT_LE(peak_live, kLocalGroupCapacity);
  // More groups than one table holds: every worker flushed, and the merge
  // read at least one row per group.
  EXPECT_GE(flushed, cardinality);
  if (!clustered && threads == 1) {
    EXPECT_GT(flushed, cardinality);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Overflow, GroupTableOverflowTest,
    ::testing::Values(Config{100000, true, 1}, Config{100000, true, 2},
                      Config{100000, true, 4}, Config{100000, false, 1},
                      Config{100000, false, 2}, Config{100000, false, 4},
                      Config{1000000, true, 1}, Config{1000000, true, 2},
                      Config{1000000, true, 4}, Config{1000000, false, 1},
                      Config{1000000, false, 2}, Config{1000000, false, 4}));

TEST(GroupTableSpillTest, SpilledRunEqualsInMemoryAndRestoresBaselines) {
  namespace fs = std::filesystem;
  const std::vector<int64_t> keys = Keys(200000, false);
  const Result expected = Reference(keys);
  const fs::path base = fs::temp_directory_path() /
                        ("vcq-group-spill-" + std::to_string(::getpid()));
  fs::create_directories(base);
  ::setenv("VCQ_SPILL_DIR", base.c_str(), 1);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const size_t live_before = runtime::MemPool::live_bytes();
    const size_t gov_before = runtime::ResourceGovernor::Global().in_use();
    std::string dir;
    {
      // The budget trips after several flushes: 400k rows of 32 bytes
      // reach 4 MiB of blocks a few flushes into the scan.
      runtime::CancelToken token;
      runtime::QueryLedger ledger(4 << 20, &token);
      ledger.EnableSpillMode();
      runtime::SpillManager spill(0, nullptr, &token);
      QueryOptions opt;
      opt.threads = threads;
      opt.cancel = &token;
      opt.ledger = &ledger;
      opt.spill = true;
      opt.spill_manager = &spill;
      EXPECT_EQ(Aggregate(keys, opt), expected);
      EXPECT_FALSE(token.Interrupted());
      EXPECT_GT(spill.spilled_bytes(), 0u);
      dir = spill.dir();
      ASSERT_FALSE(dir.empty());
      EXPECT_TRUE(fs::exists(dir));
    }
    EXPECT_FALSE(fs::exists(dir)) << "spill files left in " << dir;
    EXPECT_EQ(runtime::MemPool::live_bytes(), live_before);
    EXPECT_EQ(runtime::ResourceGovernor::Global().in_use(), gov_before);
  }
  ::unsetenv("VCQ_SPILL_DIR");
  fs::remove_all(base);
}

// The shared core on its own: rows flushed in several epochs, one of them
// spilled, merge in creation order with the combine callback.
TEST(PreAggregationCoreTest, MergeKeepsFirstSeenOrderAcrossFlushAndSpill) {
  struct Row {
    runtime::Hashmap::EntryHeader header;
    int64_t key;
    int64_t sum;
  };
  runtime::CancelToken token;
  runtime::QueryLedger ledger(1, &token);  // always under pressure
  ledger.EnableSpillMode();
  runtime::SpillManager spill(0, nullptr, &token);
  runtime::GroupEnv env;
  env.cancel = &token;
  env.ledger = &ledger;
  env.spill = &spill;
  env.spill_label = "core";
  runtime::LocalGroups local(sizeof(Row), env);
  // Same hash for every key: one partition, so the order is observable.
  const uint64_t hash = 42;
  auto add = [&](int64_t key, int64_t v) {
    auto* row = reinterpret_cast<Row*>(local.Insert(hash));
    row->key = key;
    row->sum = v;
  };
  add(3, 1);
  add(1, 2);
  local.Flush();  // spills: the ledger is over its 1-byte budget
  EXPECT_GT(spill.spilled_bytes(), 0u);
  add(1, 10);
  add(2, 20);
  add(3, 30);

  std::array<std::vector<std::byte*>, runtime::kGroupPartitions> merged;
  runtime::MemPool pool;
  runtime::MergeGroups(
      {&local}, 0, 1, env, pool, merged,
      [](const std::byte* a, const std::byte* b) {
        return reinterpret_cast<const Row*>(a)->key ==
               reinterpret_cast<const Row*>(b)->key;
      },
      [](std::byte* into, const std::byte* from) {
        reinterpret_cast<Row*>(into)->sum +=
            reinterpret_cast<const Row*>(from)->sum;
      });
  const std::vector<std::byte*>& part =
      merged[runtime::GroupPartitionOf(hash)];
  std::vector<std::pair<int64_t, int64_t>> got;
  for (const std::byte* g : part) {
    const auto* row = reinterpret_cast<const Row*>(g);
    got.emplace_back(row->key, row->sum);
  }
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {3, 31}, {1, 12}, {2, 20}};
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace vcq::typer
