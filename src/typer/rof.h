#ifndef VCQ_TYPER_ROF_H_
#define VCQ_TYPER_ROF_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "typer/join_table.h"

// Shared scaffolding for Typer's relaxed-operator-fusion probe pipelines
// (paper §9.1). Every ROF site used to hand-roll the same shape: chunk the
// morsel into blocks, gather the indices passing the scan filter, run each
// join table's three probe stages over the block, then resolve a block
// behind with the prefetch latency hidden. StagedProbeLoop is that shape
// once, variadic over any number of join tables (Q3 probes one, Q4.1
// probes four), in blocks of kRofBlock rows.

namespace vcq::typer {

/// Filter tag for sites where every row probes (no scan predicate ahead of
/// the joins): skips the index-gather entirely and stages rows in place.
struct RofAllTag {
  bool operator()(size_t) const { return true; }  // never called
};
inline constexpr RofAllTag kRofAll{};

/// One join table's staged probe state plus the row -> hash function for
/// this site, so the loop can stage any mix of tables uniformly.
/// `hash_of(i)` computes the probe hash of row i (typically
/// HashKey(column[i])).
template <typename Table, typename HashFn>
class StagedProbe {
 public:
  StagedProbe(const Table& table, HashFn hash_of)
      : staged_(table), hash_of_(std::move(hash_of)) {}

  /// Stage 1 over the block's n rows; at(k) maps block position -> row.
  template <typename IdxFn>
  void Stage(size_t n, IdxFn&& at) {
    staged_.Hash(n, [&](size_t k) { return hash_of_(at(k)); });
  }

  /// Stage 2: prefetch the surviving chain heads.
  void Prefetch(size_t n) const { staged_.PrefetchEntries(n); }

  /// The staged hash of block position k (stage 3 input).
  uint64_t hash(size_t k) const { return staged_.hash(k); }

  /// Stage 3 shortcut: lookup with the staged hash.
  template <typename EqFn>
  auto Lookup(size_t k, EqFn&& eq) const {
    return staged_.Lookup(k, std::forward<EqFn>(eq));
  }

 private:
  typename Table::StagedLookup staged_;
  HashFn hash_of_;
};

template <typename Entry, typename HashFn>
StagedProbe(const JoinTable<Entry>&, HashFn)
    -> StagedProbe<JoinTable<Entry>, HashFn>;

/// The staged probe loop over rows [begin, end): blocks of kRofBlock rows
/// are filtered, staged through every probe's three stages, and resolved
/// by
/// `body(row, probes.hash(k)...)` — one hash argument per probe, in the
/// order the probes are passed. Pass kRofAll as `filter` when every row
/// probes; otherwise `filter(row)` selects the rows to stage.
template <typename Filter, typename Body, typename... Probes>
void StagedProbeLoop(size_t begin, size_t end, Filter&& filter, Body&& body,
                     Probes&... probes) {
  constexpr bool kAllRows =
      std::is_same_v<std::remove_cv_t<std::remove_reference_t<Filter>>,
                     RofAllTag>;
  size_t idx[kRofBlock];
  for (size_t block = begin; block < end; block += kRofBlock) {
    const size_t limit = std::min(end, block + kRofBlock);
    size_t n;
    if constexpr (kAllRows) {
      n = limit - block;
      (probes.Stage(n, [&](size_t k) { return block + k; }), ...);
    } else {
      n = 0;
      for (size_t i = block; i < limit; ++i) {
        if (filter(i)) idx[n++] = i;
      }
      (probes.Stage(n, [&](size_t k) { return idx[k]; }), ...);
    }
    (probes.Prefetch(n), ...);
    for (size_t k = 0; k < n; ++k) {
      const size_t i = kAllRows ? block + k : idx[k];
      body(i, probes.hash(k)...);
    }
  }
}

}  // namespace vcq::typer

#endif  // VCQ_TYPER_ROF_H_
