#include "tectorwise/primitives_simd.h"

#include <immintrin.h>

#include <cstring>

#include "common/cpu_info.h"
#include "runtime/hash.h"
#include "tectorwise/primitives.h"

// Every kernel carries its own target attribute so the library builds and
// runs on any x86-64 machine; the AVX-512 code paths are only taken when
// simd::Available() says so.
#define VCQ_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx512cd")))

namespace vcq::tectorwise::simd {

bool Available() { return CpuInfo::HasAvx512(); }

namespace {

// Comparison selector for the generic kernels below.
enum class Op { kLess, kLessEq, kGreater, kGreaterEq, kEq };

template <Op kOp>
VCQ_AVX512 inline __mmask16 Cmp16(__m512i v, __m512i k) {
  if constexpr (kOp == Op::kLess) return _mm512_cmplt_epi32_mask(v, k);
  if constexpr (kOp == Op::kLessEq) return _mm512_cmple_epi32_mask(v, k);
  if constexpr (kOp == Op::kGreater) return _mm512_cmpgt_epi32_mask(v, k);
  if constexpr (kOp == Op::kGreaterEq) return _mm512_cmpge_epi32_mask(v, k);
  return _mm512_cmpeq_epi32_mask(v, k);
}

template <Op kOp>
VCQ_AVX512 inline __mmask8 Cmp8(__m512i v, __m512i k) {
  if constexpr (kOp == Op::kLess) return _mm512_cmplt_epi64_mask(v, k);
  if constexpr (kOp == Op::kLessEq) return _mm512_cmple_epi64_mask(v, k);
  if constexpr (kOp == Op::kGreater) return _mm512_cmpgt_epi64_mask(v, k);
  if constexpr (kOp == Op::kGreaterEq) return _mm512_cmpge_epi64_mask(v, k);
  return _mm512_cmpeq_epi64_mask(v, k);
}

// --- dense i32: compare 16 lanes, compress-store matching positions -------
template <Op kOp>
VCQ_AVX512 size_t SelI32Dense(size_t n, const int32_t* col, int32_t konst,
                              pos_t* out) {
  const __m512i k = _mm512_set1_epi32(konst);
  const __m512i step = _mm512_set1_epi32(16);
  __m512i idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                  13, 14, 15);
  pos_t* res = out;
  size_t p = 0;
  for (; p + 16 <= n; p += 16) {
    const __m512i v = _mm512_loadu_si512(col + p);
    const __mmask16 m = Cmp16<kOp>(v, k);
    _mm512_mask_compressstoreu_epi32(res, m, idx);
    res += __builtin_popcount(m);
    idx = _mm512_add_epi32(idx, step);
  }
  if (p < n) {  // masked tail
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - p)) - 1);
    const __m512i v = _mm512_maskz_loadu_epi32(tail, col + p);
    const __mmask16 m = Cmp16<kOp>(v, k) & tail;
    _mm512_mask_compressstoreu_epi32(res, m, idx);
    res += __builtin_popcount(m);
  }
  return static_cast<size_t>(res - out);
}

// --- dense i64: 8 lanes; positions tracked as 32-bit ------------------------
template <Op kOp>
VCQ_AVX512 size_t SelI64Dense(size_t n, const int64_t* col, int64_t konst,
                              pos_t* out) {
  const __m512i k = _mm512_set1_epi64(konst);
  const __m256i step = _mm256_set1_epi32(8);
  __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  pos_t* res = out;
  size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m512i v = _mm512_loadu_si512(col + p);
    const __mmask8 m = Cmp8<kOp>(v, k);
    _mm256_mask_compressstoreu_epi32(res, m, idx);
    res += __builtin_popcount(m);
    idx = _mm256_add_epi32(idx, step);
  }
  if (p < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - p)) - 1);
    const __m512i v = _mm512_maskz_loadu_epi64(tail, col + p);
    const __mmask8 m = Cmp8<kOp>(v, k) & tail;
    _mm256_mask_compressstoreu_epi32(res, m, idx);
    res += __builtin_popcount(m);
  }
  return static_cast<size_t>(res - out);
}

// --- sparse i32: load 16 positions, gather values, compare ------------------
template <Op kOp>
VCQ_AVX512 size_t SelI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                               int32_t konst, pos_t* out) {
  const __m512i k = _mm512_set1_epi32(konst);
  pos_t* res = out;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i pos = _mm512_loadu_si512(sel + i);
    const __m512i v = _mm512_i32gather_epi32(pos, col, 4);
    const __mmask16 m = Cmp16<kOp>(v, k);
    _mm512_mask_compressstoreu_epi32(res, m, pos);
    res += __builtin_popcount(m);
  }
  if (i < n) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512i pos = _mm512_maskz_loadu_epi32(tail, sel + i);
    const __m512i v = _mm512_mask_i32gather_epi32(k, tail, pos, col, 4);
    const __mmask16 m = Cmp16<kOp>(v, k) & tail;
    _mm512_mask_compressstoreu_epi32(res, m, pos);
    res += __builtin_popcount(m);
  }
  return static_cast<size_t>(res - out);
}

// --- sparse i64: 8 positions, 64-bit gathers -------------------------------
template <Op kOp>
VCQ_AVX512 size_t SelI64Sparse(size_t n, const pos_t* sel, const int64_t* col,
                               int64_t konst, pos_t* out) {
  const __m512i k = _mm512_set1_epi64(konst);
  pos_t* res = out;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i pos = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sel + i));
    const __m512i v = _mm512_i32gather_epi64(pos, col, 8);
    const __mmask8 m = Cmp8<kOp>(v, k);
    _mm256_mask_compressstoreu_epi32(res, m, pos);
    res += __builtin_popcount(m);
  }
  for (; i < n; ++i) {  // scalar tail
    const pos_t p = sel[i];
    bool keep = false;
    const int64_t v = col[p];
    if constexpr (kOp == Op::kLess) keep = v < konst;
    if constexpr (kOp == Op::kLessEq) keep = v <= konst;
    if constexpr (kOp == Op::kGreater) keep = v > konst;
    if constexpr (kOp == Op::kGreaterEq) keep = v >= konst;
    if constexpr (kOp == Op::kEq) keep = v == konst;
    *res = p;
    res += keep ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

// --- Murmur2 on 8x64-bit lanes ---------------------------------------------

// 64x64->64 multiply from 32-bit partial products (vpmuludq + shifts).
// VPMULLQ exists with AVX-512DQ but is microcoded on several
// microarchitectures (and in this container's host); the decomposition is
// uniformly fast.
VCQ_AVX512 inline __m512i Mullo64(__m512i a, __m512i b) {
  const __m512i lo_lo = _mm512_mul_epu32(a, b);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i cross = _mm512_add_epi64(_mm512_mul_epu32(a_hi, b),
                                         _mm512_mul_epu32(a, b_hi));
  return _mm512_add_epi64(lo_lo, _mm512_slli_epi64(cross, 32));
}

VCQ_AVX512 inline __m512i Murmur8(__m512i k) {
  const __m512i m = _mm512_set1_epi64(
      static_cast<long long>(runtime::kMurmurMul));
  const __m512i seed = _mm512_set1_epi64(
      static_cast<long long>(0x8445d61a4e774912ull ^
                             (8 * runtime::kMurmurMul)));
  k = Mullo64(k, m);
  k = _mm512_xor_si512(k, _mm512_srli_epi64(k, 47));
  k = Mullo64(k, m);
  __m512i h = _mm512_xor_si512(seed, k);
  h = Mullo64(h, m);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 47));
  h = Mullo64(h, m);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 47));
  return h;
}

}  // namespace

// --- public dense/sparse selections ----------------------------------------

size_t SelLessI32Dense(size_t n, const int32_t* col, int32_t k, pos_t* out) {
  return SelI32Dense<Op::kLess>(n, col, k, out);
}
size_t SelLessEqI32Dense(size_t n, const int32_t* col, int32_t k,
                         pos_t* out) {
  return SelI32Dense<Op::kLessEq>(n, col, k, out);
}
size_t SelGreaterI32Dense(size_t n, const int32_t* col, int32_t k,
                          pos_t* out) {
  return SelI32Dense<Op::kGreater>(n, col, k, out);
}
size_t SelGreaterEqI32Dense(size_t n, const int32_t* col, int32_t k,
                            pos_t* out) {
  return SelI32Dense<Op::kGreaterEq>(n, col, k, out);
}
size_t SelEqI32Dense(size_t n, const int32_t* col, int32_t k, pos_t* out) {
  return SelI32Dense<Op::kEq>(n, col, k, out);
}

size_t SelLessI64Dense(size_t n, const int64_t* col, int64_t k, pos_t* out) {
  return SelI64Dense<Op::kLess>(n, col, k, out);
}
size_t SelLessEqI64Dense(size_t n, const int64_t* col, int64_t k,
                         pos_t* out) {
  return SelI64Dense<Op::kLessEq>(n, col, k, out);
}
size_t SelGreaterI64Dense(size_t n, const int64_t* col, int64_t k,
                          pos_t* out) {
  return SelI64Dense<Op::kGreater>(n, col, k, out);
}
size_t SelGreaterEqI64Dense(size_t n, const int64_t* col, int64_t k,
                            pos_t* out) {
  return SelI64Dense<Op::kGreaterEq>(n, col, k, out);
}
size_t SelEqI64Dense(size_t n, const int64_t* col, int64_t k, pos_t* out) {
  return SelI64Dense<Op::kEq>(n, col, k, out);
}

size_t SelLessI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                        int32_t k, pos_t* out) {
  return SelI32Sparse<Op::kLess>(n, sel, col, k, out);
}
size_t SelLessEqI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                          int32_t k, pos_t* out) {
  return SelI32Sparse<Op::kLessEq>(n, sel, col, k, out);
}
size_t SelGreaterI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                           int32_t k, pos_t* out) {
  return SelI32Sparse<Op::kGreater>(n, sel, col, k, out);
}
size_t SelGreaterEqI32Sparse(size_t n, const pos_t* sel, const int32_t* col,
                             int32_t k, pos_t* out) {
  return SelI32Sparse<Op::kGreaterEq>(n, sel, col, k, out);
}
size_t SelLessI64Sparse(size_t n, const pos_t* sel, const int64_t* col,
                        int64_t k, pos_t* out) {
  return SelI64Sparse<Op::kLess>(n, sel, col, k, out);
}

VCQ_AVX512 size_t SelBetweenI32Dense(size_t n, const int32_t* col, int32_t lo,
                                     int32_t hi, pos_t* out) {
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  const __m512i step = _mm512_set1_epi32(16);
  __m512i idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                  13, 14, 15);
  pos_t* res = out;
  size_t p = 0;
  for (; p + 16 <= n; p += 16) {
    const __m512i v = _mm512_loadu_si512(col + p);
    const __mmask16 m = _mm512_cmpge_epi32_mask(v, vlo) &
                        _mm512_cmple_epi32_mask(v, vhi);
    _mm512_mask_compressstoreu_epi32(res, m, idx);
    res += __builtin_popcount(m);
    idx = _mm512_add_epi32(idx, step);
  }
  for (; p < n; ++p) {
    *res = static_cast<pos_t>(p);
    res += (col[p] >= lo && col[p] <= hi) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

VCQ_AVX512 size_t SelBetweenI64Dense(size_t n, const int64_t* col, int64_t lo,
                                     int64_t hi, pos_t* out) {
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  const __m256i step = _mm256_set1_epi32(8);
  __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  pos_t* res = out;
  size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m512i v = _mm512_loadu_si512(col + p);
    const __mmask8 m = _mm512_cmpge_epi64_mask(v, vlo) &
                       _mm512_cmple_epi64_mask(v, vhi);
    _mm256_mask_compressstoreu_epi32(res, m, idx);
    res += __builtin_popcount(m);
    idx = _mm256_add_epi32(idx, step);
  }
  for (; p < n; ++p) {
    *res = static_cast<pos_t>(p);
    res += (col[p] >= lo && col[p] <= hi) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

VCQ_AVX512 size_t SelBetweenI32Sparse(size_t n, const pos_t* sel,
                                      const int32_t* col, int32_t lo,
                                      int32_t hi, pos_t* out) {
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  pos_t* res = out;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i pos = _mm512_loadu_si512(sel + i);
    const __m512i v = _mm512_i32gather_epi32(pos, col, 4);
    const __mmask16 m = _mm512_cmpge_epi32_mask(v, vlo) &
                        _mm512_cmple_epi32_mask(v, vhi);
    _mm512_mask_compressstoreu_epi32(res, m, pos);
    res += __builtin_popcount(m);
  }
  for (; i < n; ++i) {
    const pos_t p = sel[i];
    *res = p;
    res += (col[p] >= lo && col[p] <= hi) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

VCQ_AVX512 size_t SelBetweenI64Sparse(size_t n, const pos_t* sel,
                                      const int64_t* col, int64_t lo,
                                      int64_t hi, pos_t* out) {
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  pos_t* res = out;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i pos = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sel + i));
    const __m512i v = _mm512_i32gather_epi64(pos, col, 8);
    const __mmask8 m = _mm512_cmpge_epi64_mask(v, vlo) &
                       _mm512_cmple_epi64_mask(v, vhi);
    _mm256_mask_compressstoreu_epi32(res, m, pos);
    res += __builtin_popcount(m);
  }
  for (; i < n; ++i) {
    const pos_t p = sel[i];
    *res = p;
    res += (col[p] >= lo && col[p] <= hi) ? 1 : 0;
  }
  return static_cast<size_t>(res - out);
}

// --- batch compaction --------------------------------------------------------

namespace {

// 16 lanes per block: gather the per-block lane mask from the (ascending)
// selection vector, masked-load only the selected lanes, compress-store them
// densely. Blocks without survivors are never touched.
VCQ_AVX512 void CompactI32Kernel(size_t n, const pos_t* sel,
                                 const int32_t* col, int32_t* out) {
  size_t k = 0;
  while (k < n) {
    const pos_t base = sel[k] & ~pos_t{15};
    unsigned m = 0;
    do {
      m |= 1u << (sel[k] - base);
      ++k;
    } while (k < n && sel[k] < base + 16);
    const __mmask16 mask = static_cast<__mmask16>(m);
    const __m512i v = _mm512_maskz_loadu_epi32(mask, col + base);
    _mm512_mask_compressstoreu_epi32(out, mask, v);
    out += __builtin_popcount(m);
  }
}

VCQ_AVX512 void CompactI64Kernel(size_t n, const pos_t* sel,
                                 const int64_t* col, int64_t* out) {
  size_t k = 0;
  while (k < n) {
    const pos_t base = sel[k] & ~pos_t{7};
    unsigned m = 0;
    do {
      m |= 1u << (sel[k] - base);
      ++k;
    } while (k < n && sel[k] < base + 8);
    const __mmask8 mask = static_cast<__mmask8>(m);
    const __m512i v = _mm512_maskz_loadu_epi64(mask, col + base);
    _mm512_mask_compressstoreu_epi64(out, mask, v);
    out += __builtin_popcount(m);
  }
}

}  // namespace

void CompactI32(size_t n, const pos_t* sel, const int32_t* col,
                int32_t* out) {
  if (n == 0) return;
  if (sel == nullptr) {  // already dense: contiguous copy
    std::memcpy(out, col, n * sizeof(int32_t));
    return;
  }
  if (!Available()) {
    for (size_t k = 0; k < n; ++k) out[k] = col[sel[k]];
    return;
  }
  CompactI32Kernel(n, sel, col, out);
}

void CompactI64(size_t n, const pos_t* sel, const int64_t* col,
                int64_t* out) {
  if (n == 0) return;
  if (sel == nullptr) {
    std::memcpy(out, col, n * sizeof(int64_t));
    return;
  }
  if (!Available()) {
    for (size_t k = 0; k < n; ++k) out[k] = col[sel[k]];
    return;
  }
  CompactI64Kernel(n, sel, col, out);
}

// --- hashing -----------------------------------------------------------------

VCQ_AVX512 void HashI32Compact(size_t n, const pos_t* sel, const int32_t* col,
                               uint64_t* hashes, pos_t* pos) {
  size_t k = 0;
  if (sel == nullptr) {
    for (; k + 8 <= n; k += 8) {
      const __m256i v32 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(col + k));
      const __m512i v = _mm512_cvtepu32_epi64(v32);
      _mm512_storeu_si512(hashes + k, Murmur8(v));
      for (size_t j = 0; j < 8; ++j) pos[k + j] = static_cast<pos_t>(k + j);
    }
    for (; k < n; ++k) {
      hashes[k] = runtime::HashMurmur2(static_cast<uint32_t>(col[k]));
      pos[k] = static_cast<pos_t>(k);
    }
  } else {
    for (; k + 8 <= n; k += 8) {
      const __m256i p = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(sel + k));
      const __m256i v32 = _mm256_i32gather_epi32(col, p, 4);
      const __m512i v = _mm512_cvtepu32_epi64(v32);
      _mm512_storeu_si512(hashes + k, Murmur8(v));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos + k), p);
    }
    for (; k < n; ++k) {
      const pos_t p = sel[k];
      hashes[k] = runtime::HashMurmur2(static_cast<uint32_t>(col[p]));
      pos[k] = p;
    }
  }
}

VCQ_AVX512 void HashI64Compact(size_t n, const pos_t* sel, const int64_t* col,
                               uint64_t* hashes, pos_t* pos) {
  size_t k = 0;
  if (sel == nullptr) {
    for (; k + 8 <= n; k += 8) {
      const __m512i v = _mm512_loadu_si512(col + k);
      _mm512_storeu_si512(hashes + k, Murmur8(v));
      for (size_t j = 0; j < 8; ++j) pos[k + j] = static_cast<pos_t>(k + j);
    }
    for (; k < n; ++k) {
      hashes[k] = runtime::HashMurmur2(static_cast<uint64_t>(col[k]));
      pos[k] = static_cast<pos_t>(k);
    }
  } else {
    for (; k + 8 <= n; k += 8) {
      const __m256i p = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(sel + k));
      const __m512i v = _mm512_i32gather_epi64(p, col, 8);
      _mm512_storeu_si512(hashes + k, Murmur8(v));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos + k), p);
    }
    for (; k < n; ++k) {
      const pos_t p = sel[k];
      hashes[k] = runtime::HashMurmur2(static_cast<uint64_t>(col[p]));
      pos[k] = p;
    }
  }
}

VCQ_AVX512 void RehashI32Compact(size_t n, const pos_t* pos,
                                 const int32_t* col, uint64_t* hashes) {
  const __m512i mul = _mm512_set1_epi64(
      static_cast<long long>(runtime::kMurmurMul));
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i p = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pos + k));
    const __m256i v32 = _mm256_i32gather_epi32(col, p, 4);
    const __m512i h2 = Murmur8(_mm512_cvtepu32_epi64(v32));
    __m512i h = _mm512_loadu_si512(hashes + k);
    h = _mm512_xor_si512(Mullo64(h, mul), h2);
    _mm512_storeu_si512(hashes + k, h);
  }
  for (; k < n; ++k)
    hashes[k] = runtime::HashCombine(
        hashes[k], runtime::HashMurmur2(static_cast<uint32_t>(col[pos[k]])));
}

// --- probing -----------------------------------------------------------------

VCQ_AVX512 size_t JoinCandidates(size_t n, const uint64_t* hashes,
                                 const pos_t* pos, const runtime::Hashmap& ht,
                                 runtime::Hashmap::EntryHeader** cand,
                                 pos_t* cand_pos) {
  using EntryHeader = runtime::Hashmap::EntryHeader;
  const uint64_t* dir = reinterpret_cast<const uint64_t*>(ht.buckets());
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(ht.mask()));
  const __m512i ptr_mask = _mm512_set1_epi64(
      static_cast<long long>(runtime::Hashmap::kPtrMask));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i c48 = _mm512_set1_epi64(48);
  size_t m = 0;
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512i h = _mm512_loadu_si512(hashes + k);
    const __m512i idx = _mm512_and_si512(h, mask);
    const __m512i bucket = _mm512_i64gather_epi64(idx, dir, 8);
    // tag = 1 << (48 + (h >> 60)); miss if (bucket & tag) == 0
    const __m512i tag = _mm512_sllv_epi64(
        one, _mm512_add_epi64(c48, _mm512_srli_epi64(h, 60)));
    const __m512i ptr = _mm512_and_si512(bucket, ptr_mask);
    const __mmask8 hit = _mm512_test_epi64_mask(bucket, tag) &
                         _mm512_cmpneq_epi64_mask(ptr, _mm512_setzero_si512());
    _mm512_mask_compressstoreu_epi64(cand + m, hit, ptr);
    const __m256i p = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pos + k));
    _mm256_mask_compressstoreu_epi32(cand_pos + m, hit, p);
    m += __builtin_popcount(hit);
  }
  for (; k < n; ++k) {
    EntryHeader* e = ht.FindChainTagged(hashes[k]);
    cand[m] = e;
    cand_pos[m] = pos[k];
    m += (e != nullptr) ? 1 : 0;
  }
  return m;
}

}  // namespace vcq::tectorwise::simd
