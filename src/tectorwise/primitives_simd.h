#ifndef VCQ_TECTORWISE_PRIMITIVES_SIMD_H_
#define VCQ_TECTORWISE_PRIMITIVES_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "runtime/hashmap.h"
#include "tectorwise/core.h"

// AVX-512 variants of the hot Tectorwise primitives (paper §5). Selection
// uses masked compare + COMPRESSSTORE (§5.1: "quite easy" with AVX-512,
// unlike AVX2); probing uses 64-bit gathers into the hash-table directory
// (§5.2); hashing is a data-parallel Murmur2 (§5.2).
//
// All functions here are compiled with per-function target attributes; call
// them only when CpuInfo::HasAvx512() is true. Scalar semantics are
// bit-identical (tests assert this property over random inputs).

namespace vcq::tectorwise::simd {

/// True when this build/OS/CPU combination can run the kernels below.
bool Available();

// Dense selections: col OP konst over positions [0, n).
size_t SelLessI32Dense(size_t n, const int32_t* col, int32_t k, pos_t* out);
size_t SelLessEqI32Dense(size_t n, const int32_t* col, int32_t k, pos_t* out);
size_t SelGreaterI32Dense(size_t n, const int32_t* col, int32_t k,
                          pos_t* out);
size_t SelGreaterEqI32Dense(size_t n, const int32_t* col, int32_t k,
                            pos_t* out);
size_t SelEqI32Dense(size_t n, const int32_t* col, int32_t k, pos_t* out);
size_t SelBetweenI32Dense(size_t n, const int32_t* col, int32_t lo,
                          int32_t hi, pos_t* out);

size_t SelLessI64Dense(size_t n, const int64_t* col, int64_t k, pos_t* out);
size_t SelLessEqI64Dense(size_t n, const int64_t* col, int64_t k, pos_t* out);
size_t SelGreaterI64Dense(size_t n, const int64_t* col, int64_t k,
                          pos_t* out);
size_t SelGreaterEqI64Dense(size_t n, const int64_t* col, int64_t k,
                            pos_t* out);
size_t SelEqI64Dense(size_t n, const int64_t* col, int64_t k, pos_t* out);
size_t SelBetweenI64Dense(size_t n, const int64_t* col, int64_t lo,
                          int64_t hi, pos_t* out);

// Sparse selections (input selection vector -> gathers; §5.1's
// "sparse data loading").
size_t SelLessI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                        int32_t k, pos_t* out);
size_t SelLessEqI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                          int32_t k, pos_t* out);
size_t SelGreaterI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                           int32_t k, pos_t* out);
size_t SelGreaterEqI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                             int32_t k, pos_t* out);
size_t SelBetweenI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                           int32_t lo, int32_t hi, pos_t* out);
size_t SelLessI64Sparse(size_t n, const pos_t* sel, const int64_t* col,
                        int64_t k, pos_t* out);
size_t SelBetweenI64Sparse(size_t n, const pos_t* sel, const int64_t* col,
                           int64_t lo, int64_t hi, pos_t* out);

// Batch compaction: out[k] = col[sel[k]] via per-16/8-lane masked loads +
// COMPRESSSTORE — only cache lines containing survivors are touched, so the
// cost scales with the number of live tuples, not the vector size. Selection
// vectors are position-sorted (all producers emit them ascending), which is
// what lets the kernels build one lane mask per block. Unlike the other
// kernels in this header these fall back to the scalar CompactCopy
// internally when AVX-512 is unavailable, so they are safe to call on any
// host (the runtime-dispatch contract of the Compactor).
void CompactI32(size_t n, const pos_t* sel, const int32_t* col, int32_t* out);
void CompactI64(size_t n, const pos_t* sel, const int64_t* col, int64_t* out);

// Murmur2 hashing, compacted output (see HashCompact in primitives.h).
void HashI32Compact(size_t n, const pos_t* sel, const int32_t* col,
                    uint64_t* hashes, pos_t* pos);
void HashI64Compact(size_t n, const pos_t* sel, const int64_t* col,
                    uint64_t* hashes, pos_t* pos);
void RehashI32Compact(size_t n, const pos_t* pos, const int32_t* col,
                      uint64_t* hashes);

/// findCandidates with SIMD gathers of the directory words + tag test.
size_t JoinCandidates(size_t n, const uint64_t* hashes, const pos_t* pos,
                      const runtime::Hashmap& ht,
                      runtime::Hashmap::EntryHeader** cand, pos_t* cand_pos);

}  // namespace vcq::tectorwise::simd

#endif  // VCQ_TECTORWISE_PRIMITIVES_SIMD_H_
