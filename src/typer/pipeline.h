#ifndef VCQ_TYPER_PIPELINE_H_
#define VCQ_TYPER_PIPELINE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/cancel.h"
#include "runtime/fault_injector.h"
#include "runtime/hash.h"
#include "runtime/hashmap.h"
#include "runtime/mem_pool.h"
#include "runtime/options.h"
#include "runtime/pre_aggregation.h"
#include "runtime/query_result.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/worker_pool.h"

// The produce/consume kit every Typer query is written with (the mapping
// onto the paper's generated code is in typer/queries.h). Each part is a
// template over the query's own lambdas, so one pipeline's scan, filter,
// probes and aggregate update still compile into a single loop with no
// indirect call per row.

namespace vcq::typer {

// ---------------------------------------------------------------------------
// Scan region
// ---------------------------------------------------------------------------

/// The morsel loop's cancellation poll, and the engine's densest fault
/// point ("scan.morsel"): an injected failure here exercises the exception
/// backstop at every morsel boundary of every pipeline.
inline bool Stop(const runtime::QueryOptions& opt) {
  runtime::FaultHit(opt.fault, "scan.morsel", opt.cancel);
  return runtime::Interrupted(opt.cancel);
}

/// One parallel region over rows [0, rows) on the run's pool (`rows` is the
/// scheduler's work hint). worker(wid, morsels) runs once per worker;
/// morsels(fn) calls fn(begin, end) for each morsel that worker claims.
///
/// The poll comes before each claim, so a cancelled or deadline-expired run
/// stops at the next morsel boundary. Interruption is sticky and regions
/// run one after another, so once a build region stops early every later
/// region stops before its first claim: a partially built hash table is
/// never probed, and Finish() turns the trip into the run's status.
template <typename WorkerFn>
void Scan(const runtime::QueryOptions& opt, size_t rows, WorkerFn&& worker) {
  runtime::MorselQueue queue(rows, opt.morsel_grain);
  runtime::PoolFor(opt).Run(opt, rows, [&](size_t wid) {
    worker(wid, [&](auto&& morsel) {
      size_t begin, end;
      while (!Stop(opt) && queue.Next(begin, end)) morsel(begin, end);
    });
  });
}

/// Scan region that adds up morsel(begin, end) over every morsel.
template <typename MorselFn>
int64_t Sum(const runtime::QueryOptions& opt, size_t rows, MorselFn&& morsel) {
  int64_t total = 0;
  std::mutex mu;  // guards total
  Scan(opt, rows, [&](size_t, auto&& morsels) {
    int64_t local = 0;
    morsels([&](size_t begin, size_t end) { local += morsel(begin, end); });
    std::lock_guard<std::mutex> lock(mu);
    total += local;
  });
  return total;
}

// ---------------------------------------------------------------------------
// Filter step
// ---------------------------------------------------------------------------

/// The filter step's "no scan predicate": every row enters the loop body.
struct AllRows {};

/// Rows per selection block: the survivor index buffer (4 KiB) stays
/// L1-resident between the selection stage and the rest of the loop.
inline constexpr size_t kSelectBlock = 512;

/// Calls body(i) for every row i in [begin, end) with pred(i) true, in row
/// order; with AllRows, for every row. A real predicate runs as a
/// branch-free selection stage (the selection study of paper Figs. 6-7):
/// a fused loop's `if (!pred(i)) continue;` mispredicts at middling
/// selectivities, so per block of kSelectBlock rows the stage stores every
/// row index and advances past the passing ones only (`idx[n] = i; n +=
/// pred(i);`, no branch when `pred` joins its comparisons with `&`), then
/// the body runs over the survivors. No prefetch and no reordering, so
/// groups are created in the same first-seen order as by the plain loop.
template <typename Pred, typename Body>
void ForEachSelected(size_t begin, size_t end, Pred&& pred, Body&& body) {
  if constexpr (std::is_same_v<std::decay_t<Pred>, AllRows>) {
    for (size_t i = begin; i < end; ++i) body(i);
  } else {
    size_t idx[kSelectBlock];
    for (size_t block = begin; block < end; block += kSelectBlock) {
      const size_t limit = std::min(end, block + kSelectBlock);
      size_t n = 0;
      for (size_t i = block; i < limit; ++i) {
        idx[n] = i;
        n += static_cast<size_t>(pred(i));
      }
      for (size_t k = 0; k < n; ++k) body(idx[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Hash of a join or group key: the low-latency CRC hash (paper §4.1: "the
/// CRC hash function improves [Typer's] performance up to 40%") of an
/// integral key, zero-extended; a composite key packs its columns into a
/// uint64_t or is a struct (or a group probe) that supplies its own Hash().
template <typename Key>
uint64_t KeyHash(const Key& key) {
  if constexpr (std::is_integral_v<Key>) {
    return runtime::HashCrc32(
        static_cast<uint64_t>(static_cast<std::make_unsigned_t<Key>>(key)));
  } else {
    return key.Hash();
  }
}

/// How the kit takes a key: an integral key by value, so a probe never
/// re-reads it from its column; a composite key by reference, so the
/// caller's one copy on the stack is read field by field (copying it whole
/// would load it at a width no single store wrote, which stalls).
template <typename Key>
using KeyArg =
    std::conditional_t<std::is_integral_v<Key>, Key, const Key&>;

// ---------------------------------------------------------------------------
// Join build and probe
// ---------------------------------------------------------------------------

/// Join hash table. Entry is an aggregate {Hashmap::EntryHeader header;
/// Key key; payload...}. Build() materializes entries into worker-local
/// chunk arenas, then hands them to the shared runtime::JoinBuild — the
/// build protocol the Tectorwise HashJoin uses over the same
/// runtime::Hashmap (paper §3.2: "the same data structures"). The build
/// copies every entry into its own arena, so each worker frees its
/// materialize pool as soon as the build is done.
template <typename Entry>
class JoinTable {
  static_assert(std::is_trivially_copyable_v<Entry>,
                "the join build relocates entries bytewise");

 public:
  using Key = decltype(Entry::key);

  explicit JoinTable(const runtime::QueryOptions& opt)
      : opt_(opt),
        build_(&ht, opt.threads,
               runtime::JoinBuildEnv{opt.cancel, opt.fault, opt.ledger,
                                     opt.trace_sink, 0}),
        pools_(opt.threads) {
    // Governed runs charge materialize-phase chunks to the query ledger
    // and expose the allocation as a named fault point.
    for (runtime::MemPool& pool : pools_)
      pool.Bind(opt.ledger, opt.fault, "typer.join.materialize");
  }

  /// One scan region over [0, rows) covering materialize and insert.
  /// row(i, emit) calls emit(key, payload...) for each entry row i
  /// produces; the entry's header.hash is KeyHash(key).
  template <typename RowFn>
  void Build(size_t rows, RowFn&& row) {
    Scan(opt_, rows, [&](size_t wid, auto&& morsels) {
      runtime::EntryChunkList list;
      Entry* block = nullptr;
      size_t used = kChunkRows;
      runtime::SpillFile* spill_file = nullptr;
      auto emit = [&](KeyArg<Key> key, const auto&... payload) {
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
        new (block + used++)
            Entry{runtime::Hashmap::EntryHeader{nullptr, KeyHash(key)}, key,
                  payload...};
        ++list.chunks.back().second;
        ++list.total;
      };
      morsels([&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) row(i, emit);
      });
      build_.Run(std::move(list), sizeof(Entry));
      // Every entry now lives in the build's arena.
      pools_[wid].Release();
    });
  }

  /// The probe: the entry whose key equals `key`, or nullptr.
  const Entry* Find(KeyArg<Key> key) const {
    const uint64_t hash = KeyHash(key);
    for (auto* e = ht.FindChainTagged(hash); e != nullptr; e = e->next) {
      const auto* entry = reinterpret_cast<const Entry*>(e);
      if (e->hash == hash && entry->key == key) return entry;
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

// ---------------------------------------------------------------------------
// Group-by
// ---------------------------------------------------------------------------

// The two-phase aggregation of runtime/pre_aggregation.h (paper §3.2).
// Each worker pre-aggregates into a bounded local table; when
// kLocalGroupCapacity groups are live the table flushes (its rows stay in
// their hash-partition blocks, or go to disk under spill pressure) and
// starts empty. The merge then combines the flushed rows one partition at
// a time. Only the lookup is Typer's own: At() is inlined into the
// query's fused loop, so keys stay in registers until the group update.

inline runtime::GroupEnv GroupEnvFor(const runtime::QueryOptions& opt) {
  return {opt.cancel,     opt.fault,       opt.ledger,
          opt.spill_manager, opt.trace_sink, runtime::QueryTrace::kNoSite,
          "typer.group.alloc", "typer.group.merge", "typer.group"};
}

/// Worker-local aggregation table. Entry is {Hashmap::EntryHeader header;
/// Key key; aggregates...} with `void Combine(const Entry&)`.
template <typename Entry>
class LocalGroupTable {
  static_assert(std::is_trivially_copyable_v<Entry>,
                "group flush and spill relocate entries bytewise");

 public:
  using Key = decltype(Entry::key);

  explicit LocalGroupTable(const runtime::QueryOptions& opt)
      : groups_(sizeof(Entry), GroupEnvFor(opt)) {}

  /// The group for `key`. A new group is zeroed past its header, gets
  /// `key`, then init(group). Valid until the next At (which may flush).
  /// `key` is a Key or a probe for one: a type with Hash(), `==` against a
  /// Key and a conversion to Key, which hashes and compares a composite
  /// key's string columns where they lie (SSB-Q3.1's Q31Probe says why).
  template <typename Probe, typename InitFn>
  Entry* At(const Probe& key, InitFn&& init) {
    // An integral key hashes at the Key's width, whatever the caller's.
    const uint64_t hash = KeyHash<
        std::conditional_t<std::is_integral_v<Key>, Key, Probe>>(key);
    for (auto* e = groups_.directory().FindChainTagged(hash); e != nullptr;
         e = e->next) {
      auto* entry = reinterpret_cast<Entry*>(e);
      if (e->hash == hash && entry->key == key) return entry;
    }
    if (groups_.full()) groups_.Flush();
    auto* entry = reinterpret_cast<Entry*>(groups_.Insert(hash));
    constexpr size_t kHeader = sizeof(runtime::Hashmap::EntryHeader);
    std::memset(reinterpret_cast<std::byte*>(entry) + kHeader, 0,
                sizeof(Entry) - kHeader);
    entry->key = key;
    init(*entry);
    return entry;
  }
  template <typename Probe>
  Entry* At(const Probe& key) {
    return At(key, [](Entry&) {});
  }

  runtime::LocalGroups& groups() { return groups_; }

 private:
  runtime::LocalGroups groups_;
};

/// GroupBy's result: the merged groups (unordered; Finish sorts), the
/// local tables whose partition blocks hold them, and the pools that own
/// the entries read back from spill files.
template <typename Entry>
struct MergedGroups {
  std::vector<Entry*> groups;
  std::vector<std::unique_ptr<LocalGroupTable<Entry>>> locals;
  std::vector<runtime::MemPool> pools;  // one per merge worker
};

/// Scan region over [0, rows) that aggregates into worker-local tables:
/// row(i, local) runs for every row passing `pred` (the filter step) and
/// updates local.At(key). Then a parallel partition-wise merge.
template <typename Entry, typename Pred, typename RowFn>
MergedGroups<Entry> GroupBy(const runtime::QueryOptions& opt, size_t rows,
                            Pred&& pred, RowFn&& row) {
  MergedGroups<Entry> result;
  result.locals.resize(opt.threads);
  Scan(opt, rows, [&](size_t wid, auto&& morsels) {
    result.locals[wid] = std::make_unique<LocalGroupTable<Entry>>(opt);
    LocalGroupTable<Entry>& local = *result.locals[wid];
    morsels([&](size_t begin, size_t end) {
      ForEachSelected(begin, end, pred, [&](size_t i) { row(i, local); });
    });
  });

  // A worker that died mid-scan has no table: merge the survivors' rows
  // (the tripped token discards the result anyway).
  std::vector<runtime::LocalGroups*> tables;
  for (const auto& local : result.locals)
    tables.push_back(local != nullptr ? &local->groups() : nullptr);
  const runtime::GroupEnv env = GroupEnvFor(opt);
  std::array<std::vector<std::byte*>, runtime::kGroupPartitions> merged;
  result.pools.resize(opt.threads);
  for (runtime::MemPool& pool : result.pools)
    pool.Bind(opt.ledger, opt.fault, env.merge_point);
  runtime::PoolFor(opt).Run(
      opt, runtime::FlushedRows(tables), [&](size_t wid) {
        runtime::MergeGroups(
            tables, wid, opt.threads, env, result.pools[wid], merged,
            [](const std::byte* a, const std::byte* b) {
              return reinterpret_cast<const Entry*>(a)->key ==
                     reinterpret_cast<const Entry*>(b)->key;
            },
            [](std::byte* into, const std::byte* from) {
              reinterpret_cast<Entry*>(into)->Combine(
                  *reinterpret_cast<const Entry*>(from));
            });
      });
  size_t groups = 0;
  for (const auto& part : merged) groups += part.size();
  result.groups.reserve(groups);
  for (const auto& part : merged) {
    for (std::byte* g : part)
      result.groups.push_back(reinterpret_cast<Entry*>(g));
  }
  return result;
}

template <typename Entry, typename RowFn>
MergedGroups<Entry> GroupBy(const runtime::QueryOptions& opt, size_t rows,
                            RowFn&& row) {
  return GroupBy<Entry>(opt, rows, AllRows{}, row);
}

// ---------------------------------------------------------------------------
// Result tail
// ---------------------------------------------------------------------------

/// The serial tail after the last parallel region. A trip (deadline,
/// budget, injected fault) that landed during or after that region
/// surfaces here as the run's status instead of a sorted result nobody
/// will see. Otherwise sorts `rows` by `less` and writes the first `limit`
/// through write(builder.BeginRow(), row).
template <typename Rows, typename Less, typename WriteFn>
runtime::QueryResult Finish(const runtime::QueryOptions& opt,
                            std::vector<std::string> columns, Rows&& rows,
                            Less&& less, WriteFn&& write,
                            size_t limit = SIZE_MAX) {
  if (Stop(opt)) return runtime::QueryResult::Failed(opt.cancel->status());
  std::sort(std::begin(rows), std::end(rows), less);
  runtime::ResultBuilder rb(std::move(columns));
  const size_t n = std::min<size_t>(limit, std::size(rows));
  for (size_t k = 0; k < n; ++k) write(rb.BeginRow(), rows[k]);
  return rb.Finish();
}

}  // namespace vcq::typer

#endif  // VCQ_TYPER_PIPELINE_H_
