#ifndef VCQ_TYPER_GROUP_TABLE_H_
#define VCQ_TYPER_GROUP_TABLE_H_

#include <array>
#include <memory>
#include <type_traits>
#include <vector>

#include "runtime/options.h"
#include "runtime/pre_aggregation.h"
#include "runtime/worker_pool.h"

// Group-by support for the Typer engine: the two-phase aggregation of
// runtime/pre_aggregation.h (paper §3.2). Each worker pre-aggregates into
// a bounded local table; when kLocalGroupCapacity groups are live the
// table flushes (its rows stay in their hash-partition blocks, or go to
// disk under spill pressure) and starts empty. MergeLocalGroups then
// combines the flushed rows one partition at a time. Only the lookup loop
// is Typer's own: FindOrCreate is template-inlined into the query's fused
// loop, so keys stay in registers until the group update (paper §2).

namespace vcq::typer {

inline runtime::GroupEnv GroupEnvFor(const runtime::QueryOptions& opt) {
  return {opt.cancel,     opt.fault,       opt.ledger,
          opt.spill_manager, opt.trace_sink, runtime::QueryTrace::kNoSite,
          "typer.group.alloc", "typer.group.merge", "typer.group"};
}

/// Worker-local aggregation table. Entry must begin with a
/// runtime::Hashmap::EntryHeader member named `header`.
template <typename Entry>
class LocalGroupTable {
  static_assert(std::is_trivially_copyable_v<Entry>,
                "group flush and spill relocate entries bytewise");

 public:
  explicit LocalGroupTable(const runtime::QueryOptions& opt)
      : groups_(sizeof(Entry), GroupEnvFor(opt)) {}

  /// Returns the group for `hash`, creating it with `init(Entry*)` when
  /// absent. `eq(const Entry&)` decides key equality against the probe key
  /// held in the caller's registers. The returned pointer is valid until
  /// the next FindOrCreate (which may flush the table).
  template <typename EqFn, typename InitFn>
  Entry* FindOrCreate(uint64_t hash, EqFn&& eq, InitFn&& init) {
    for (auto* e = groups_.directory().FindChainTagged(hash); e != nullptr;
         e = e->next) {
      if (e->hash == hash && eq(*reinterpret_cast<Entry*>(e)))
        return reinterpret_cast<Entry*>(e);
    }
    if (groups_.full()) groups_.Flush();
    auto* entry = reinterpret_cast<Entry*>(groups_.Insert(hash));
    init(entry);
    return entry;
  }

  runtime::LocalGroups& groups() { return groups_; }

 private:
  runtime::LocalGroups groups_;
};

/// MergeLocalGroups result: the merged groups plus the pools that own the
/// entries read back from spill files. Keep it alive while the group
/// pointers are read (the pipelines hold it until the result is built).
template <typename Entry>
struct MergedGroups {
  std::vector<Entry*> groups;
  std::vector<runtime::MemPool> pools;  // one per merge worker
};

/// Parallel partition-wise merge of all workers' flushed rows. Entry must
/// provide `bool KeyEquals(const Entry&) const` and `void Combine(const
/// Entry&)`. Group order is unspecified (the pipelines sort).
template <typename Entry>
MergedGroups<Entry> MergeLocalGroups(
    std::vector<std::unique_ptr<LocalGroupTable<Entry>>>& locals,
    const runtime::QueryOptions& opt) {
  // A worker that died mid-scan has no table: merge the survivors' rows
  // (the tripped token discards the result anyway).
  std::vector<runtime::LocalGroups*> tables;
  for (const auto& local : locals)
    tables.push_back(local != nullptr ? &local->groups() : nullptr);
  const runtime::GroupEnv env = GroupEnvFor(opt);
  std::array<std::vector<std::byte*>, runtime::kGroupPartitions> merged;
  MergedGroups<Entry> result;
  result.pools.resize(opt.threads);
  for (runtime::MemPool& pool : result.pools)
    pool.Bind(opt.ledger, opt.fault, env.merge_point);
  runtime::PoolFor(opt).Run(
      opt, runtime::FlushedRows(tables), [&](size_t wid) {
        runtime::MergeGroups(
            tables, wid, opt.threads, env, result.pools[wid], merged,
            [](const std::byte* a, const std::byte* b) {
              return reinterpret_cast<const Entry*>(a)->KeyEquals(
                  *reinterpret_cast<const Entry*>(b));
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

}  // namespace vcq::typer

#endif  // VCQ_TYPER_GROUP_TABLE_H_
