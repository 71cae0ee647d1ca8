#ifndef VCQ_TYPER_JOIN_TABLE_H_
#define VCQ_TYPER_JOIN_TABLE_H_

#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/hashmap.h"
#include "runtime/mem_pool.h"
#include "runtime/options.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/worker_pool.h"

namespace vcq::typer {

/// Shared join hash table for Typer pipelines: a morsel-parallel producer
/// materializes entries into worker-local chunk arenas, then hands them to
/// the shared runtime::JoinBuild — the same build protocol the Tectorwise
/// HashJoin uses over the same runtime::Hashmap (paper §3.2: "the same data
/// structures"). The build copies every entry into its own arena, so each
/// worker frees its materialize pool as soon as the build is done.
///
/// Entry must begin with a runtime::Hashmap::EntryHeader member `header`;
/// the producer sets `header.hash` before emitting.
template <typename Entry>
class JoinTable {
  static_assert(std::is_trivially_copyable_v<Entry>,
                "the join build relocates entries bytewise");

 public:
  /// `site` is this build's NodeTelemetry slot; the build span is recorded
  /// there on traced runs (opt.trace_sink set). The Typer queries leave it
  /// at 0, so a query's build spans add up in one slot.
  explicit JoinTable(const runtime::QueryOptions& opt, uint32_t site = 0)
      : opt_(opt),
        build_(&ht, opt.threads,
               runtime::JoinBuildEnv{opt.cancel, opt.fault, opt.ledger,
                                     opt.trace_sink, site}),
        pools_(opt.threads) {
    // Governed runs charge materialize-phase chunks to the query ledger
    // and expose the allocation as a named fault point; ungoverned runs
    // bind nothing and behave exactly as the seed.
    for (runtime::MemPool& pool : pools_)
      pool.Bind(opt.ledger, opt.fault, "typer.join.materialize");
  }

  /// produce(worker_id, emit) appends build tuples via emit(const Entry&);
  /// runs one parallel region covering materialize + insert, on the run's
  /// stream and cancel token and traced like every other pipeline. `work`
  /// is the region's input size in tuples — the scheduler's
  /// shortest-remaining-region hint (0 = unknown).
  template <typename ProduceFn>
  void Build(ProduceFn&& produce, size_t work = 0) {
    runtime::PoolFor(opt_).Run(opt_, work, [&](size_t wid) {
      runtime::EntryChunkList list;
      Entry* block = nullptr;
      size_t used = kChunkRows;
      runtime::SpillFile* spill_file = nullptr;
      auto emit = [&](const Entry& e) {
        if (used == kChunkRows) {
          // Chunk boundary — every materialized chunk is complete, the one
          // safe point to relieve memory pressure: spill the finished
          // chunks and release the pool before growing it again.
          if (opt_.spill_manager != nullptr && !list.chunks.empty() &&
              opt_.ledger != nullptr && opt_.ledger->UnderPressure()) {
            if (spill_file == nullptr)
              spill_file = opt_.spill_manager->Create("typer.join");
            list.SpillTo(spill_file, sizeof(Entry));
            pools_[wid].Release();
          }
          block = static_cast<Entry*>(
              pools_[wid].Allocate(kChunkRows * sizeof(Entry)));
          list.Add(reinterpret_cast<std::byte*>(block), 0);
          used = 0;
        }
        new (block + used++) Entry(e);
        ++list.chunks.back().second;
        ++list.total;
      };
      produce(wid, emit);
      build_.Run(std::move(list), sizeof(Entry));
      // Every entry now lives in the build's arena.
      pools_[wid].Release();
    });
  }

  /// Primary-key lookup: first entry with matching hash passing `eq`. Every
  /// Typer probe is this call, inside its pipeline's one fused loop.
  template <typename EqFn>
  const Entry* Lookup(uint64_t hash, EqFn&& eq) const {
    for (auto* e = ht.FindChainTagged(hash); e != nullptr; e = e->next) {
      if (e->hash == hash && eq(*reinterpret_cast<const Entry*>(e)))
        return reinterpret_cast<const Entry*>(e);
    }
    return nullptr;
  }

  size_t size() const { return build_.entry_count(); }

  runtime::Hashmap ht;

 private:
  static constexpr size_t kChunkRows = 1024;

  runtime::QueryOptions opt_;
  runtime::JoinBuild build_;
  std::vector<runtime::MemPool> pools_;
};

}  // namespace vcq::typer

#endif  // VCQ_TYPER_JOIN_TABLE_H_
