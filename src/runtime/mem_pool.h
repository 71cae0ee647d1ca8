#ifndef VCQ_RUNTIME_MEM_POOL_H_
#define VCQ_RUNTIME_MEM_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "runtime/block_cache.h"
#include "runtime/fault_injector.h"
#include "runtime/resource_governor.h"

namespace vcq::runtime {

/// Arena allocator for hash-table entries. Each worker thread owns a pool,
/// so entry allocation during parallel builds is contention-free; the pools
/// are kept alive by the operator that owns the hash table. Memory is
/// reclaimed wholesale — when the pool dies, or early via Release() once
/// the rows have been relocated elsewhere (the join build copies every
/// entry into its arena, after which the materialize-phase chunks here are
/// dead weight).
///
/// Chunks come from BlockCache::Global() and go back to it on release, so
/// a warm execution reuses the pages the previous one faulted in. Chunk
/// memory is not zeroed: callers write every byte they later read.
///
/// Resource governance: Bind() attaches the run's QueryLedger and
/// FaultInjector. Every chunk the pool grows by is charged to the ledger
/// (and through it to the process ResourceGovernor) and uncharged on
/// Release/destruction, so `in_use()` tracks exactly the bytes
/// live_bytes() counts for this run. Growth order is fault point, then
/// allocation, then accounting — a throw from either of the first two
/// leaves the pool and all counters exactly as they were (strong
/// guarantee), which is what keeps live_bytes()/ledger balanced across
/// any injected or real allocation failure.
class MemPool {
 public:
  explicit MemPool(size_t chunk_bytes = 1 << 20) : chunk_bytes_(chunk_bytes) {}

  MemPool(const MemPool&) = delete;
  MemPool& operator=(const MemPool&) = delete;
  MemPool(MemPool&& other) noexcept { *this = std::move(other); }
  MemPool& operator=(MemPool&& other) noexcept {
    if (this != &other) {
      Release();
      chunk_bytes_ = other.chunk_bytes_;
      chunks_ = std::move(other.chunks_);
      current_ = other.current_;
      current_size_ = other.current_size_;
      used_ = other.used_;
      total_allocated_ = other.total_allocated_;
      owned_bytes_ = other.owned_bytes_;
      ledger_charged_ = other.ledger_charged_;
      ledger_ = other.ledger_;
      fault_ = other.fault_;
      fault_site_ = other.fault_site_;
      other.chunks_.clear();
      other.current_ = nullptr;
      other.current_size_ = 0;
      other.used_ = 0;
      other.total_allocated_ = 0;
      other.owned_bytes_ = 0;
      other.ledger_charged_ = 0;
      other.ledger_ = nullptr;
      other.fault_ = nullptr;
    }
    return *this;
  }

  ~MemPool() { Release(); }

  /// Attaches the run's memory ledger and fault injector; `site` names the
  /// fault point growth fires (see FaultInjector::KnownPoints). Either may
  /// be nullptr; call before the first Allocate of the phase being
  /// governed (bytes grown while unbound are only counted by live_bytes).
  void Bind(QueryLedger* ledger, FaultInjector* fault, const char* site) {
    ledger_ = ledger;
    fault_ = fault;
    fault_site_ = site;
  }

  /// Returns 8-byte-aligned storage. May throw std::bad_alloc — from the
  /// system allocator or an armed fault point — with all accounting
  /// untouched; governed runs convert that to kResourceExhausted via the
  /// scheduler backstop.
  void* Allocate(size_t bytes) {
    bytes = AlignUp(bytes, 8);
    if (used_ + bytes > current_size_) Grow(bytes);
    void* p = current_ + used_;
    used_ += bytes;
    return p;
  }

  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "pool never runs destructors");
    return new (Allocate(sizeof(T))) T(std::forward<Args>(args)...);
  }

  /// Uncharges every chunk and gives it back to the BlockCache now (all
  /// handed-out pointers become dangling); the pool stays usable for new
  /// allocations. Idempotent — a second Release
  /// (or Release after the unwind of a failed build already ran it) is a
  /// no-op: owned_bytes_ is zeroed with the chunks, so neither
  /// live_bytes() nor the ledger can be double-decremented, and the next
  /// Grow() re-charges from a clean slate. Called by both engines' join
  /// builds once runtime::JoinBuild has copied every entry into its arena.
  void Release() {
    live_bytes_.fetch_sub(owned_bytes_, std::memory_order_relaxed);
    // Only bytes grown while bound were charged — a pool can grow before
    // Bind(), and those bytes must not be uncharged against the ledger.
    if (ledger_ != nullptr && ledger_charged_ > 0)
      ledger_->Uncharge(ledger_charged_);
    ledger_charged_ = 0;
    owned_bytes_ = 0;
    chunks_.clear();
    current_ = nullptr;
    current_size_ = 0;
    used_ = 0;
  }

  /// True when Allocate(bytes) would grow a new chunk — the chunk boundary
  /// the join builds relieve spill pressure at.
  bool WouldGrow(size_t bytes) const {
    return used_ + AlignUp(bytes, 8) > current_size_;
  }

  /// Total bytes handed out over the pool's lifetime (diagnostics).
  size_t bytes_allocated() const { return total_allocated_; }
  /// Bytes currently held in chunks by this pool.
  size_t owned_bytes() const { return owned_bytes_; }

  /// Process-wide bytes currently held by all live MemPool chunks — the
  /// transient-build-memory counter hashmap_test asserts on: once a join
  /// build has copied its rows into its arena and the engine released the
  /// materialize pools, this is back at its pre-materialize value. The
  /// fault-injection sweep asserts it returns to baseline after every
  /// failed query.
  static size_t live_bytes() {
    return live_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void Grow(size_t min_bytes) {
    FaultHit(fault_, fault_site_, ledger_ != nullptr ? ledger_->token()
                                                     : nullptr);
    const size_t size = std::max(chunk_bytes_, NextPow2(min_bytes));
    chunks_.push_back(BlockCache::Global().Take(size));
    current_ = chunks_.back().data();
    current_size_ = size;
    used_ = 0;
    total_allocated_ += size;
    owned_bytes_ += size;
    live_bytes_.fetch_add(size, std::memory_order_relaxed);
    if (ledger_ != nullptr) {
      ledger_charged_ += size;
      ledger_->Charge(size);
    }
  }

  size_t chunk_bytes_;
  std::vector<Block> chunks_;
  std::byte* current_ = nullptr;
  size_t current_size_ = 0;
  size_t used_ = 0;
  size_t total_allocated_ = 0;
  size_t owned_bytes_ = 0;
  size_t ledger_charged_ = 0;
  QueryLedger* ledger_ = nullptr;
  FaultInjector* fault_ = nullptr;
  const char* fault_site_ = "pool.grow";

  inline static std::atomic<size_t> live_bytes_{0};
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_MEM_POOL_H_
