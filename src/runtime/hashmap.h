#ifndef VCQ_RUNTIME_HASHMAP_H_
#define VCQ_RUNTIME_HASHMAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "runtime/barrier.h"
#include "runtime/block_cache.h"
#include "runtime/cancel.h"
#include "runtime/fault_injector.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/trace.h"

namespace vcq::runtime {

/// Chaining hash table shared by Typer and Tectorwise (paper §3.2): a bucket
/// array of tagged pointers plus externally allocated entries (row format,
/// MemPool). The upper 16 bits of each bucket pointer encode a small
/// Bloom-filter-like tag ("using 16 unused bits of each pointer"), so a
/// probe miss usually skips the collision chain entirely — this is what
/// makes selective joins cheap in both engines.
///
/// The table itself is key-agnostic: operators define their own entry
/// layouts that start with EntryHeader and do their own key comparisons,
/// which is precisely the paper's framing (Typer fuses the comparison into
/// the probe loop; Tectorwise runs one compare primitive per key column).
///
/// The bucket array is a BlockCache::Global() block, given back when the
/// table is resized or destroyed, so a warm execution reuses the
/// directory pages of the previous one.
class Hashmap {
 public:
  struct EntryHeader {
    EntryHeader* next;
    uint64_t hash;
  };

  static constexpr uintptr_t kPtrMask = (uintptr_t{1} << 48) - 1;

  Hashmap() = default;
  Hashmap(const Hashmap&) = delete;
  Hashmap& operator=(const Hashmap&) = delete;

  /// Sizes the bucket array for `entry_count` entries (load factor <= 0.5).
  /// Not thread-safe; call once before the parallel build phase. Strong
  /// exception guarantee: a bad_alloc leaves the previous directory (and
  /// capacity/mask) intact, so a failed build never publishes a
  /// capacity/mask pair that disagrees with the live bucket array.
  void SetSize(size_t entry_count) {
    const size_t capacity = NextPow2(entry_count * 2);
    Block block =
        BlockCache::Global().Take(capacity * sizeof(std::atomic<uintptr_t>));
    auto* buckets = reinterpret_cast<std::atomic<uintptr_t>*>(block.data());
    for (size_t i = 0; i < capacity; ++i)
      new (&buckets[i]) std::atomic<uintptr_t>(0);
    block_ = std::move(block);  // the old directory goes back to the cache
    buckets_ = buckets;
    capacity_ = capacity;
    mask_ = capacity_ - 1;
  }

  void Clear() {
    for (size_t i = 0; i < capacity_; ++i)
      buckets_[i].store(0, std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// Bloom tag derived from the hash's top 4 bits: one of 16 bits in the
  /// pointer's upper 16 bits.
  static uintptr_t TagOf(uint64_t hash) {
    return uintptr_t{1} << (48 + (hash >> 60));
  }

  static EntryHeader* Ptr(uintptr_t bucket) {
    return reinterpret_cast<EntryHeader*>(bucket & kPtrMask);
  }

  size_t BucketOf(uint64_t hash) const { return hash & mask_; }

  /// Chain head with Bloom pre-filter: returns nullptr without touching the
  /// chain when the tag bit for this hash is absent.
  EntryHeader* FindChainTagged(uint64_t hash) const {
    const uintptr_t b =
        buckets_[BucketOf(hash)].load(std::memory_order_relaxed);
    return (b & TagOf(hash)) ? Ptr(b) : nullptr;
  }

  /// Chain head without the filter (used by the tag-ablation bench).
  EntryHeader* FindChain(uint64_t hash) const {
    return Ptr(buckets_[BucketOf(hash)].load(std::memory_order_relaxed));
  }

  /// Thread-safe insert via CAS; preserves existing tag bits and adds the
  /// entry's own. `e->hash` must already be set.
  void Insert(EntryHeader* e) {
    std::atomic<uintptr_t>& slot = buckets_[BucketOf(e->hash)];
    const uintptr_t tag = TagOf(e->hash);
    uintptr_t old = slot.load(std::memory_order_relaxed);
    uintptr_t desired;
    do {
      e->next = Ptr(old);
      desired = reinterpret_cast<uintptr_t>(e) | (old & ~kPtrMask) | tag;
    } while (!slot.compare_exchange_weak(old, desired,
                                         std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  /// Single-threaded insert (no CAS); for serial builds and tests.
  void InsertUnlocked(EntryHeader* e) {
    std::atomic<uintptr_t>& slot = buckets_[BucketOf(e->hash)];
    const uintptr_t old = slot.load(std::memory_order_relaxed);
    e->next = Ptr(old);
    slot.store(reinterpret_cast<uintptr_t>(e) | (old & ~kPtrMask) |
                   TagOf(e->hash),
               std::memory_order_relaxed);
  }

  /// Raw bucket array (SIMD gather probing, Fig. 8/9).
  const std::atomic<uintptr_t>* buckets() const { return buckets_; }
  uint64_t mask() const { return mask_; }

 private:
  Block block_;  // owns buckets_
  std::atomic<uintptr_t>* buckets_ = nullptr;
  size_t capacity_ = 0;
  uint64_t mask_ = 0;
};

/// One worker's materialized build-side rows: contiguous `stride`-byte rows,
/// each beginning with an EntryHeader whose hash is already set. Produced by
/// the materialize phase of either engine, consumed by JoinBuild.
///
/// Under spill pressure (runtime/spill.h) the owning engine may evict
/// completed chunks to a SpillFile and release their memory: `spill` then
/// holds the evicted rows (same stride, write order) and `total` counts
/// only the live in-memory rows. JoinBuild reads the spilled segments
/// back into its arena during the fill.
struct EntryChunkList {
  std::vector<std::pair<std::byte*, size_t>> chunks;  // (base, row count)
  size_t total = 0;             // live rows (in the chunks above)
  SpillFile* spill = nullptr;   // rows evicted under memory pressure
  size_t spilled_rows = 0;

  void Add(std::byte* base, size_t rows) {
    chunks.emplace_back(base, rows);
    total += rows;
  }

  /// Moves every live chunk's rows into `file` (one segment per run of
  /// chunks adjacent in memory, write order = creation order) and forgets
  /// them; the caller releases the backing memory. `stride` is the row
  /// size.
  void SpillTo(SpillFile* file, size_t stride) {
    for (size_t i = 0; i < chunks.size();) {
      std::byte* const base = chunks[i].first;
      size_t rows = 0;
      do {
        rows += chunks[i++].second;
      } while (i < chunks.size() && chunks[i].first == base + rows * stride);
      if (rows == 0) continue;
      file->Append(0, base, rows * stride, rows);
      spilled_rows += rows;
    }
    spill = file;
    chunks.clear();
    total = 0;
  }
};

/// Failure-containment context of one JoinBuild (all optional): the run's
/// CancelToken (barrier aborts, failure propagation), FaultInjector (the
/// build's named fault points), QueryLedger (directory + arena bytes are
/// charged to the query's memory budget), and trace sink + site id (on
/// traced runs the build's wall span is recorded under `site` in the
/// trace's node_telemetry()). Default-constructed = the ungoverned seed
/// behavior.
struct JoinBuildEnv {
  const CancelToken* cancel = nullptr;
  FaultInjector* fault = nullptr;
  QueryLedger* ledger = nullptr;
  QueryTrace* trace = nullptr;
  uint32_t site = 0;
};

/// Shared join-build protocol of both engines (one instance per hash table,
/// one Run() call per worker), the morsel-driven build of paper §3.2 /
/// Leis et al.: each worker materializes its build rows locally (the
/// engine-specific phase), then
///
///   sizing barrier  the last worker to arrive sums the per-worker row
///                   counts (live + spilled) into the total and each
///                   worker's arena segment offset, sizes the directory and
///                   takes one arena of total × stride bytes from the
///                   BlockCache;
///   fill            each worker copies its own rows into its own segment
///                   with sequential writes (spilled segments first, then
///                   live chunks), then inserts that segment's entries —
///                   CAS Insert, or InsertUnlocked when the build has one
///                   worker — prefetching the directory word of the entry
///                   kPrefetchDistance rows ahead;
///   final barrier   the table is complete; probes may start.
///
/// Why copy instead of inserting the entries where they were
/// materialized: the copy frees the engines' materialize pools after the
/// build (their 1 MiB chunks would otherwise stay resident through the
/// probe, which matters for small builds under a memory budget), lets
/// spilled rows be read straight into their final place, and keeps every
/// entry of one worker in one sequential run. The arena is owned here and
/// must outlive the probes (both engines keep the JoinBuild alive for the
/// query). Chain contents (entries per bucket, tag bits) do not depend on
/// the thread count; only the chain order does, which no studied query
/// observes.
///
/// Failure containment (JoinBuildEnv with a token): a worker whose phase
/// throws — injected fault, real bad_alloc from the directory/arena, a
/// failed spill read — marks the build poisoned, Fail()s the token, and
/// the exception never crosses a barrier: both waits are token-aware
/// (Barrier::WaitOrAbort), so surviving workers abort instead of blocking
/// on the dead one, skip the fill, and drain. The poisoned table is never
/// probed (the probing region observes the sticky trip before claiming
/// any morsel) and all charged bytes return on destruction. Without a
/// token the seed contract stands: an exception propagates and the run
/// fails fast.
class JoinBuild {
 public:
  /// Rows between an entry's directory-word prefetch and its insert.
  static constexpr size_t kPrefetchDistance = 16;

  JoinBuild(Hashmap* ht, size_t threads, JoinBuildEnv env = {})
      : ht_(ht), threads_(threads), env_(env), barrier_(threads),
        published_(threads), seg_offsets_(threads + 1) {}

  ~JoinBuild() {
    if (env_.ledger != nullptr && charged_ > 0) env_.ledger->Uncharge(charged_);
  }

  /// Executes the build protocol for one worker: publishes `chunks`, meets
  /// the barrier that sizes the table, then copies and inserts its rows.
  /// `stride` is the row size (identical across workers). After Run
  /// returns no entry references `chunks`, so the caller may free them.
  void Run(EntryChunkList chunks, size_t stride) {
    const size_t wid = arrivals_.fetch_add(1, std::memory_order_relaxed);
    VCQ_CHECK_MSG(wid < threads_, "JoinBuild::Run called more often than the "
                                  "thread count it was built for");
    published_[wid] = std::move(chunks);

    const BarrierStatus sizing = barrier_.WaitOrAbort(
        [&] {
          // The on_last body must not leak an exception through the
          // barrier on managed runs: followers would be released believing
          // the table was sized. Poison instead, so every worker skips the
          // fill, and re-raise only on unmanaged builds.
          try {
            FaultHit(env_.fault, "join_build.size", env_.cancel);
            if (env_.trace != nullptr) start_ns_ = QueryTrace::NowNs();
            stride_ = stride;
            seg_offsets_[0] = 0;
            for (size_t w = 0; w < threads_; ++w) {
              seg_offsets_[w + 1] = seg_offsets_[w] + published_[w].total +
                                    published_[w].spilled_rows;
            }
            total_ = seg_offsets_[threads_];
            // Budget-aware sizing: the directory and arena are the build's
            // big allocations, so re-check the token between them — a
            // budget already tripped by the materialize phase (or by the
            // directory charge itself) must not be overshot by the arena.
            if (Interrupted(env_.cancel)) {
              poisoned_.store(true, std::memory_order_release);
              return;
            }
            ht_->SetSize(total_);
            Charge(ht_->capacity() * sizeof(uintptr_t));
            if (Interrupted(env_.cancel)) {
              poisoned_.store(true, std::memory_order_release);
              return;
            }
            arena_ = BlockCache::Global().Take(total_ * stride_);
            Charge(total_ * stride_);
          } catch (...) {
            poisoned_.store(true, std::memory_order_release);
            FailCurrentException(env_.cancel);
            if (env_.cancel == nullptr) throw;
          }
        },
        env_.cancel);

    if (sizing != BarrierStatus::kAborted &&
        !poisoned_.load(std::memory_order_acquire)) {
      try {
        FaultHit(env_.fault, "join_build.insert", env_.cancel);
        Fill(wid);
        FaultHit(env_.fault, "join_build.finish", env_.cancel);
      } catch (...) {
        poisoned_.store(true, std::memory_order_release);
        FailCurrentException(env_.cancel);
        if (env_.cancel == nullptr) throw;
      }
    }

    barrier_.WaitOrAbort(
        [&] {
          if (env_.trace != nullptr && total_ > 0) {
            env_.trace->node_telemetry().RecordSpan(
                env_.site, QueryTrace::NowNs() - start_ns_, total_);
          }
          // Every entry now lives in the arena: drop the chunk lists that
          // point into the engines' materialize pools.
          for (EntryChunkList& list : published_) list = EntryChunkList{};
        },
        env_.cancel);
  }

  /// True once any worker's build phase failed; the table contents are
  /// undefined and must not be probed (the sticky token trip guarantees
  /// the probing region never starts).
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Total build-side rows (valid after Run returns).
  size_t entry_count() const { return total_; }
  /// Entry arena holding every row (worker segments in worker order).
  const std::byte* arena() const { return arena_.data(); }

 private:
  /// Copies worker `wid`'s rows into its arena segment — spilled segments
  /// read straight into place in write order, then the live chunks — and
  /// inserts them.
  void Fill(size_t wid) {
    std::byte* const seg = arena_.data() + seg_offsets_[wid] * stride_;
    const size_t rows = seg_offsets_[wid + 1] - seg_offsets_[wid];
    const EntryChunkList& list = published_[wid];
    std::byte* dst = seg;
    if (list.spill != nullptr && list.spilled_rows > 0) {
      for (const SpillFile::Segment& s : list.spill->segments()) {
        list.spill->Read(s, dst);
        dst += s.bytes;
      }
    }
    for (const auto& [base, n] : list.chunks) {
      std::memcpy(dst, base, n * stride_);
      dst += n * stride_;
    }
    const auto entry = [&](size_t k) {
      return reinterpret_cast<Hashmap::EntryHeader*>(seg + k * stride_);
    };
    for (size_t k = 0; k < rows; ++k) {
      if (k + kPrefetchDistance < rows) {
        __builtin_prefetch(
            ht_->buckets() + ht_->BucketOf(entry(k + kPrefetchDistance)->hash),
            1, 1);
      }
      if (threads_ == 1) {
        ht_->InsertUnlocked(entry(k));
      } else {
        ht_->Insert(entry(k));
      }
    }
  }

  /// Books `bytes` against the run's memory budget (sizing on_last only —
  /// single-threaded by construction, so the plain charged_ accumulation
  /// is safe); the destructor returns the total.
  void Charge(size_t bytes) {
    if (env_.ledger == nullptr) return;
    charged_ += bytes;
    env_.ledger->Charge(bytes);
  }

  Hashmap* ht_;
  const size_t threads_;
  JoinBuildEnv env_;
  std::atomic<bool> poisoned_{false};
  size_t charged_ = 0;  // written only under the sizing barrier's on_last
  Barrier barrier_;
  std::atomic<size_t> arrivals_{0};
  std::vector<EntryChunkList> published_;
  // Worker w's rows are arena rows [seg_offsets_[w], seg_offsets_[w + 1]).
  std::vector<size_t> seg_offsets_;
  size_t stride_ = 0;
  size_t total_ = 0;
  Block arena_;  // given back after the destructor uncharges it
  uint64_t start_ns_ = 0;  // written/read only under the barrier's on_last
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_HASHMAP_H_
