// Ablation: the join build/probe memory path. Axes:
//   * build — runtime::JoinBuild (each worker copies its rows into its
//     arena segment, then inserts them with directory prefetches) at 1
//     and T threads, as ms and ns per build row;
//   * probe — findCandidates + compareKeys + advance over random keys
//     (~50% hits), as ms and ns per probe row;
// swept over build-side cardinality (Fig. 9-style working-set axis). The
// paper's Tab. 1/Fig. 4 finding is that exactly this path dominates the
// join queries once the table leaves the caches.

#include <cstddef>
#include <cstdio>
#include <random>
#include <vector>

#include "benchutil/bench.h"
#include "runtime/hash.h"
#include "runtime/hashmap.h"
#include "runtime/mem_pool.h"
#include "runtime/worker_pool.h"
#include "tectorwise/primitives.h"

namespace {

using namespace vcq;
using runtime::EntryChunkList;
using runtime::Hashmap;
using runtime::JoinBuild;
using tectorwise::pos_t;

constexpr size_t kBatch = 4096;

struct Entry {
  Hashmap::EntryHeader header;
  int64_t key;
  int64_t payload;
};

/// Build-side rows pre-materialized into per-worker chunk lists, so the
/// measured region is exactly the build protocol (what JoinBuild::Run
/// does), not the materialize phase.
struct BuildInput {
  explicit BuildInput(size_t entries, size_t workers) : lists(workers) {
    constexpr size_t kChunkRows = 1024;
    for (size_t w = 0; w < workers; ++w) {
      const size_t begin = w * entries / workers;
      const size_t end = (w + 1) * entries / workers;
      for (size_t at = begin; at < end; at += kChunkRows) {
        const size_t rows = std::min(kChunkRows, end - at);
        auto* block =
            static_cast<Entry*>(pool.Allocate(rows * sizeof(Entry)));
        for (size_t k = 0; k < rows; ++k) {
          const auto key = static_cast<int64_t>(at + k);
          block[k].header.next = nullptr;
          block[k].header.hash =
              runtime::HashMurmur2(static_cast<uint64_t>(key));
          block[k].key = key;
          block[k].payload = key * 3;
        }
        lists[w].Add(reinterpret_cast<std::byte*>(block), rows);
      }
    }
  }

  /// All rows as a single worker's chunk list (single-threaded builds).
  EntryChunkList Merged() const {
    EntryChunkList all;
    for (const EntryChunkList& list : lists) {
      for (const auto& [base, rows] : list.chunks) all.Add(base, rows);
    }
    return all;
  }

  runtime::MemPool pool;
  std::vector<EntryChunkList> lists;
};

double MeasureBuild(const BuildInput& input, size_t threads, int reps) {
  return benchutil::Measure(
             [&] {
               Hashmap ht;
               JoinBuild build(&ht, threads);
               runtime::WorkerPool::Global().Run(threads, [&](size_t wid) {
                 EntryChunkList chunks = threads == 1
                                             ? input.Merged()
                                             : input.lists[wid];
                 build.Run(std::move(chunks), sizeof(Entry));
               });
             },
             reps)
      .ms;
}

/// One built table plus the probe working set.
struct Probe {
  Probe(const BuildInput& input, size_t entries)
      : build(&ht, 1), hashes(kBatch), pos(kBatch), keys(kBatch),
        cand(kBatch), cand_pos(kBatch), match(kBatch), hits(kBatch),
        hit_pos(kBatch) {
    build.Run(input.Merged(), sizeof(Entry));
    rng.seed(42 + entries);
    range = 2 * entries;  // ~50% hit rate
  }

  /// Hashes one fresh batch and resolves it through the full candidate /
  /// compare / advance loop; returns the hit count (kept live).
  size_t Batch() {
    for (size_t k = 0; k < kBatch; ++k) {
      keys[k] = static_cast<int64_t>(rng() % range);
      hashes[k] = runtime::HashMurmur2(static_cast<uint64_t>(keys[k]));
      pos[k] = static_cast<pos_t>(k);
    }
    size_t m = tectorwise::JoinCandidates(kBatch, hashes.data(), pos.data(),
                                          ht, cand.data(), cand_pos.data());
    size_t hit_count = 0;
    while (m > 0) {
      tectorwise::CmpEntryKeyInit<int64_t>(m, cand.data(), cand_pos.data(),
                                           keys.data(),
                                           offsetof(Entry, key),
                                           match.data());
      m = tectorwise::ExtractHitsAdvance(m, cand.data(), cand_pos.data(),
                                         match.data(), hits.data(),
                                         hit_pos.data(), hit_count);
    }
    return hit_count;
  }

  Hashmap ht;
  JoinBuild build;
  std::mt19937_64 rng;
  uint64_t range = 1;
  std::vector<uint64_t> hashes;
  std::vector<pos_t> pos;
  std::vector<int64_t> keys;
  std::vector<Hashmap::EntryHeader*> cand;
  std::vector<pos_t> cand_pos;
  std::vector<uint8_t> match;
  std::vector<Hashmap::EntryHeader*> hits;
  std::vector<pos_t> hit_pos;
};

double MeasureProbe(Probe& probe, size_t batches, int reps) {
  volatile size_t sink = 0;
  return benchutil::Measure(
             [&] {
               for (size_t b = 0; b < batches; ++b) sink = sink + probe.Batch();
             },
             reps)
      .ms;
}

}  // namespace

int main() {
  const int reps = benchutil::EnvReps(3);
  const size_t threads = benchutil::EnvThreads(0);
  benchutil::PrintHeader(
      "Ablation: join build + probe over build cardinality",
      "join queries are bound by the hash-table memory path (Tab. 1, "
      "Fig. 4); probe cost per row rises as the table leaves the caches "
      "(Fig. 9)",
      "threads=" + std::to_string(threads) +
          "; build = per-worker arena copy + prefetched inserts "
          "(runtime::JoinBuild)");

  std::vector<size_t> entry_counts = {1 << 14, 1 << 16, 1 << 18, 1 << 20,
                                      1 << 22};
  if (benchutil::Quick()) entry_counts = {1 << 12, 1 << 14};

  benchutil::Table table({"entries", "ws_MB", "b1 ms", "b1 ns/row",
                          "bT ms", "bT ns/row", "bT spdup", "probe ms",
                          "probe ns/row"});
  for (const size_t entries : entry_counts) {
    BuildInput input(entries, threads);
    const double b1 = MeasureBuild(input, 1, reps);
    const double bt = MeasureBuild(input, threads, reps);

    Probe probe(input, entries);
    const size_t batches = std::max<size_t>(1, entries / kBatch) * 4;
    const double probe_ms = MeasureProbe(probe, batches, reps);

    const double ws_mb =
        static_cast<double>(probe.ht.capacity() * sizeof(void*) +
                            entries * sizeof(Entry)) /
        (1 << 20);
    const auto ns_per_row = [](double ms, size_t rows) {
      return benchutil::Fmt(ms * 1e6 / static_cast<double>(rows), 1);
    };
    table.AddRow({std::to_string(entries), benchutil::Fmt(ws_mb, 1),
                  benchutil::Fmt(b1, 2), ns_per_row(b1, entries),
                  benchutil::Fmt(bt, 2), ns_per_row(bt, entries),
                  benchutil::Fmt(b1 / bt, 2), benchutil::Fmt(probe_ms, 2),
                  ns_per_row(probe_ms, batches * kBatch)});
  }
  table.Print();
  std::printf(
      "\nexpected shape: build ns/row rises once the directory leaves the "
      "caches and falls with threads (disjoint arena segments, CAS inserts "
      "into one directory); probe ns/row rises in steps as the working "
      "set leaves L2 and then the LLC (two dependent misses per lookup: "
      "directory word, then chain entry).\n");
  return 0;
}
