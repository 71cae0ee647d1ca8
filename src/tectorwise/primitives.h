#ifndef VCQ_TECTORWISE_PRIMITIVES_H_
#define VCQ_TECTORWISE_PRIMITIVES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "runtime/hash.h"
#include "runtime/hashmap.h"
#include "tectorwise/core.h"

// Tectorwise primitives: the tight, type-specialized loops that do all the
// actual query processing work (paper §2.1). Each primitive (i) works on a
// single data type and (ii) processes a whole vector. Two shapes recur:
//
//  * "dense"  — input positions are 0..n-1,
//  * "sparse" — an input selection vector lists the active positions
//               (the sparse-data-loading effect studied in §5.1).
//
// Selection primitives are branch-free predicated loops
// (`*out = p; out += cond;`), as the paper prescribes for throughput.
// AVX-512 variants of the hot primitives live in primitives_simd.h.

namespace vcq::tectorwise {

using runtime::Hashmap;

// ---------------------------------------------------------------------------
// Comparison functors (selection predicates)
// ---------------------------------------------------------------------------

struct CmpLess {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a < b;
  }
};
struct CmpLessEq {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a <= b;
  }
};
struct CmpGreater {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a > b;
  }
};
struct CmpGreaterEq {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a >= b;
  }
};
struct CmpEq {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a == b;
  }
};

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

/// Dense selection: emits every position p in [0,n) with cmp(col[p], konst).
template <typename T, typename Cmp>
size_t SelDense(size_t n, const T* col, T konst, pos_t* out) {
  Cmp cmp;
  pos_t* res = out;
  for (size_t p = 0; p < n; ++p) {
    *res = static_cast<pos_t>(p);
    res += cmp(col[p], konst) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

/// Sparse selection: like SelDense but over the positions in `sel`.
template <typename T, typename Cmp>
size_t SelSparse(size_t n, const pos_t* sel, const T* col, T konst,
                 pos_t* out) {
  Cmp cmp;
  pos_t* res = out;
  for (size_t k = 0; k < n; ++k) {
    const pos_t p = sel[k];
    *res = p;
    res += cmp(col[p], konst) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

/// Inclusive range selection (lo <= x <= hi), dense.
template <typename T>
size_t SelBetweenDense(size_t n, const T* col, T lo, T hi, pos_t* out) {
  pos_t* res = out;
  for (size_t p = 0; p < n; ++p) {
    *res = static_cast<pos_t>(p);
    res += (col[p] >= lo && col[p] <= hi) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

/// Inclusive range selection, sparse.
template <typename T>
size_t SelBetweenSparse(size_t n, const pos_t* sel, const T* col, T lo, T hi,
                        pos_t* out) {
  pos_t* res = out;
  for (size_t k = 0; k < n; ++k) {
    const pos_t p = sel[k];
    *res = p;
    res += (col[p] >= lo && col[p] <= hi) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

/// Disjunctive two-constant equality (x == a || x == b); SSB Q4.1's
/// "p_mfgr in ('MFGR#1','MFGR#2')".
template <typename T>
size_t SelEqOr2Dense(size_t n, const T* col, T a, T b, pos_t* out) {
  pos_t* res = out;
  for (size_t p = 0; p < n; ++p) {
    *res = static_cast<pos_t>(p);
    res += (col[p] == a || col[p] == b) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

/// Substring containment on inline Varchar (Q9's p_name like '%green%').
template <typename V>
size_t SelContainsDense(size_t n, const V* col, std::string_view needle,
                        pos_t* out) {
  pos_t* res = out;
  for (size_t p = 0; p < n; ++p) {
    *res = static_cast<pos_t>(p);
    res += col[p].Contains(needle) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

// ---------------------------------------------------------------------------
// Projection (map)
// ---------------------------------------------------------------------------
// Map primitives write "aligned": out[p] for each active position p, keeping
// computed columns position-compatible with base columns under the same
// selection vector.

/// out[p] = a[p] * b[p]
template <typename T>
void MapMul(size_t n, const pos_t* sel, const T* a, const T* b, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = a[p] * b[p];
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = a[p] * b[p];
    }
  }
}

/// out[p] = konst - a[p]   (e.g. 1.00 - l_discount)
template <typename T>
void MapRSubConst(size_t n, const pos_t* sel, T konst, const T* a, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = konst - a[p];
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = konst - a[p];
    }
  }
}

/// out[p] = konst + a[p]   (e.g. 1.00 + l_tax)
template <typename T>
void MapAddConst(size_t n, const pos_t* sel, T konst, const T* a, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = konst + a[p];
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = konst + a[p];
    }
  }
}

/// out[p] = a[p] / konst (scale reduction after fixed-point multiplies)
template <typename T>
void MapDivConst(size_t n, const pos_t* sel, const T* a, T konst, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = a[p] / konst;
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = a[p] / konst;
    }
  }
}

/// out[p] = a[p] * (konst - b[p])   (e.g. extendedprice * (1.00 - discount));
/// fuses the RSubConst+Mul pair so the intermediate is never materialized.
template <typename T>
void MapMulRSubConst(size_t n, const pos_t* sel, const T* a, T konst,
                     const T* b, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = a[p] * (konst - b[p]);
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = a[p] * (konst - b[p]);
    }
  }
}

/// out[p] = a[p] * (konst + b[p])   (e.g. disc_price * (1.00 + tax)).
template <typename T>
void MapMulAddConst(size_t n, const pos_t* sel, const T* a, T konst,
                    const T* b, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = a[p] * (konst + b[p]);
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = a[p] * (konst + b[p]);
    }
  }
}

/// out[p] = calendar year of day-number a[p] (extract(year from date)).
void MapYear(size_t n, const pos_t* sel, const int32_t* a, int32_t* out);

/// out[p] = a[p] - b[p]
template <typename T>
void MapSub(size_t n, const pos_t* sel, const T* a, const T* b, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = a[p] - b[p];
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = a[p] - b[p];
    }
  }
}

/// out[p] = a[p] + b[p]
template <typename T>
void MapAdd(size_t n, const pos_t* sel, const T* a, const T* b, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = a[p] + b[p];
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = a[p] + b[p];
    }
  }
}

/// out[p] = a[p] * konst (fixed-point rescale / literal multiply)
template <typename T>
void MapMulConst(size_t n, const pos_t* sel, const T* a, T konst, T* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = a[p] * konst;
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = a[p] * konst;
    }
  }
}

/// out[p] = (To)a[p] — integer widening (int32 columns entering int64
/// arithmetic or aggregation).
template <typename From, typename To>
void MapWiden(size_t n, const pos_t* sel, const From* a, To* out) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) out[p] = static_cast<To>(a[p]);
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      out[p] = static_cast<To>(a[p]);
    }
  }
}

// ---------------------------------------------------------------------------
// Hashing (join / group-by key expressions)
// ---------------------------------------------------------------------------
// Hash primitives produce *compacted* outputs: hashes[k] plus the batch
// position pos[k] of the k-th active tuple, so downstream join primitives
// run dense while gathers still reach base columns through pos.

template <typename T>
uint64_t HashValue(const T& v) {
  if constexpr (sizeof(T) <= 8) {
    // Any POD key up to 8 bytes (ints, dates, Char<1>..Char<8>) hashes as
    // one zero-extended word — a single Murmur2 round.
    uint64_t word = 0;
    std::memcpy(&word, &v, sizeof(T));
    return runtime::HashMurmur2(word);
  } else {
    return runtime::HashBytes(&v, sizeof(T));
  }
}

/// First key column: hash + compact position capture.
template <typename T>
void HashCompact(size_t n, const pos_t* sel, const T* col, uint64_t* hashes,
                 pos_t* pos) {
  if (sel == nullptr) {
    for (size_t p = 0; p < n; ++p) {
      hashes[p] = HashValue(col[p]);
      pos[p] = static_cast<pos_t>(p);
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel[k];
      hashes[k] = HashValue(col[p]);
      pos[k] = p;
    }
  }
}

/// Subsequent key columns: combine into the existing hash (composite keys).
template <typename T>
void RehashCompact(size_t n, const pos_t* pos, const T* col,
                   uint64_t* hashes) {
  for (size_t k = 0; k < n; ++k)
    hashes[k] = runtime::HashCombine(hashes[k], HashValue(col[pos[k]]));
}

// ---------------------------------------------------------------------------
// Hash-table probing (paper Fig. 2b)
// ---------------------------------------------------------------------------

/// findCandidates: fetch tagged chain heads; emits (entry, probe position)
/// pairs for tuples whose bucket passes the Bloom tag.
inline size_t JoinCandidates(size_t n, const uint64_t* hashes,
                             const pos_t* pos, const Hashmap& ht,
                             Hashmap::EntryHeader** cand, pos_t* cand_pos) {
  size_t m = 0;
  for (size_t k = 0; k < n; ++k) {
    Hashmap::EntryHeader* e = ht.FindChainTagged(hashes[k]);
    cand[m] = e;
    cand_pos[m] = pos[k];
    m += (e != nullptr) ? 1 : 0;
  }
  return m;
}

/// compareKeys, first key column: match[k] = (entry key == probe key).
template <typename T>
void CmpEntryKeyInit(size_t n, Hashmap::EntryHeader* const* cand,
                     const pos_t* cand_pos, const T* col, size_t offset,
                     uint8_t* match) {
  for (size_t k = 0; k < n; ++k) {
    const T* key = reinterpret_cast<const T*>(
        reinterpret_cast<const std::byte*>(cand[k]) + offset);
    match[k] = (*key == col[cand_pos[k]]) ? 1 : 0;
  }
}

/// compareKeys, subsequent key columns: match[k] &= equality.
template <typename T>
void CmpEntryKeyAnd(size_t n, Hashmap::EntryHeader* const* cand,
                    const pos_t* cand_pos, const T* col, size_t offset,
                    uint8_t* match) {
  for (size_t k = 0; k < n; ++k) {
    const T* key = reinterpret_cast<const T*>(
        reinterpret_cast<const std::byte*>(cand[k]) + offset);
    match[k] &= (*key == col[cand_pos[k]]) ? 1 : 0;
  }
}

/// extractHits + chain advance: matched candidates are appended to the hit
/// buffers AND stay in the candidate set (following ->next), because a
/// build side with duplicate keys stores every duplicate on one chain and
/// each entry is its own result row. Mismatches follow ->next as well
/// (hash-bucket collisions); exhausted chains drop out. Returns the new
/// candidate count; `hit_count` grows by the number of hits (at most n per
/// call, so per-round hit buffers sized at vector_size never overflow).
inline size_t ExtractHitsAdvance(size_t n, Hashmap::EntryHeader** cand,
                                 pos_t* cand_pos, const uint8_t* match,
                                 Hashmap::EntryHeader** hits, pos_t* hit_pos,
                                 size_t& hit_count) {
  size_t survivors = 0;
  for (size_t k = 0; k < n; ++k) {
    if (match[k]) {
      hits[hit_count] = cand[k];
      hit_pos[hit_count] = cand_pos[k];
      ++hit_count;
    }
    Hashmap::EntryHeader* next = cand[k]->next;
    cand[survivors] = next;
    cand_pos[survivors] = cand_pos[k];
    survivors += (next != nullptr) ? 1 : 0;
  }
  return survivors;
}

// ---------------------------------------------------------------------------
// Gather / scatter (materialization between operators)
// ---------------------------------------------------------------------------

/// out[k] = col[pos[k]] — compact probe-side columns after a join.
template <typename T>
void GatherPos(size_t n, const pos_t* pos, const T* col, T* out) {
  for (size_t k = 0; k < n; ++k) out[k] = col[pos[k]];
}

// ---------------------------------------------------------------------------
// Batch compaction (sparse -> dense rewrite)
// ---------------------------------------------------------------------------
// Compaction primitives copy the live values of a sel-carrying batch into a
// dense buffer so downstream primitives run their dense paths. The AVX-512
// compress-store variants live in primitives_simd.h (CompactI32/I64).

/// out[k] = col[sel[k]]; a null sel means the batch is already dense and
/// the copy is contiguous. The generic sparse->dense gather fallback used
/// for any fixed-width type.
template <typename T>
void CompactCopy(size_t n, const pos_t* sel, const T* col, T* out) {
  if (n == 0) return;
  if (sel == nullptr) {
    std::memcpy(out, col, n * sizeof(T));
    return;
  }
  for (size_t k = 0; k < n; ++k) out[k] = col[sel[k]];
}

/// Type-erased row compaction for odd-width columns (Char<N>, Varchar):
/// copies `elem_size`-byte rows col[sel[k]] -> out[k].
inline void CompactBytes(size_t n, const pos_t* sel, const std::byte* col,
                         size_t elem_size, std::byte* out) {
  if (n == 0) return;
  if (sel == nullptr) {
    std::memcpy(out, col, n * elem_size);
    return;
  }
  for (size_t k = 0; k < n; ++k)
    std::memcpy(out + k * elem_size, col + sel[k] * elem_size, elem_size);
}

/// out[k] = *(T*)(entries[k] + offset) — the paper's buildGather.
template <typename T>
void GatherEntry(size_t n, Hashmap::EntryHeader* const* entries,
                 size_t offset, T* out) {
  for (size_t k = 0; k < n; ++k)
    out[k] = *reinterpret_cast<const T*>(
        reinterpret_cast<const std::byte*>(entries[k]) + offset);
}

/// Entry row construction during hash build: field scatter into a
/// contiguous run of entries (base + k*stride + offset) from col[pos[k]].
template <typename T>
void ScatterToEntries(size_t n, const pos_t* pos, const T* col,
                      std::byte* base, size_t stride, size_t offset) {
  for (size_t k = 0; k < n; ++k)
    *reinterpret_cast<T*>(base + k * stride + offset) = col[pos[k]];
}

/// Stores the precomputed hashes into the entry headers.
inline void ScatterHashes(size_t n, const uint64_t* hashes, std::byte* base,
                          size_t stride) {
  for (size_t k = 0; k < n; ++k) {
    auto* header = reinterpret_cast<Hashmap::EntryHeader*>(base + k * stride);
    header->next = nullptr;
    header->hash = hashes[k];
  }
}

// ---------------------------------------------------------------------------
// Aggregation updates (group pointers produced by the group lookup)
// ---------------------------------------------------------------------------

/// *(int64*)(groups[k]+offset) += col[pos[k]]
inline void AggSum(size_t n, std::byte* const* groups, size_t offset,
                   const pos_t* pos, const int64_t* col) {
  for (size_t k = 0; k < n; ++k)
    *reinterpret_cast<int64_t*>(groups[k] + offset) += col[pos[k]];
}

/// *(int64*)(groups[k]+offset) += 1
inline void AggCount(size_t n, std::byte* const* groups, size_t offset) {
  for (size_t k = 0; k < n; ++k)
    *reinterpret_cast<int64_t*>(groups[k] + offset) += 1;
}

/// *(int64*)(groups[k]+offset) = min(current, col[pos[k]])
inline void AggMin(size_t n, std::byte* const* groups, size_t offset,
                   const pos_t* pos, const int64_t* col) {
  for (size_t k = 0; k < n; ++k) {
    auto* acc = reinterpret_cast<int64_t*>(groups[k] + offset);
    const int64_t v = col[pos[k]];
    if (v < *acc) *acc = v;
  }
}

/// *(int64*)(groups[k]+offset) = max(current, col[pos[k]])
inline void AggMax(size_t n, std::byte* const* groups, size_t offset,
                   const pos_t* pos, const int64_t* col) {
  for (size_t k = 0; k < n; ++k) {
    auto* acc = reinterpret_cast<int64_t*>(groups[k] + offset);
    const int64_t v = col[pos[k]];
    if (v > *acc) *acc = v;
  }
}

}  // namespace vcq::tectorwise

#endif  // VCQ_TECTORWISE_PRIMITIVES_H_
