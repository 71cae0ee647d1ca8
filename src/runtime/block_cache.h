#ifndef VCQ_RUNTIME_BLOCK_CACHE_H_
#define VCQ_RUNTIME_BLOCK_CACHE_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "runtime/resource_governor.h"

// Warm memory across executions. The big per-query allocations — MemPool
// chunks, Hashmap bucket arrays and the JoinBuild arena — come from one
// process-wide BlockCache instead of the system allocator. glibc returns
// large freed blocks to the kernel (munmap, heap trim), so without the
// cache every warm execution of a join- or group-heavy query faults its
// hash tables in again, one 4 KiB page at a time.
//
// The cache keeps a returned block only while
//
//     cached_bytes() + governor.in_use() <= governor.peak()
//
// holds, so idle cached memory never lifts the process above the governed
// high-water mark it has already reached; where it does not hold, cached
// blocks are freed, smallest first. The bound is enforced whenever the
// cache changes: on every give back, before every fresh allocation (which
// frees cached blocks first so the new block fits, or takes the block it
// would free instead), and on ResourceGovernor::ResetPeak. Concurrent
// charges can overshoot it by the blocks in flight between a take and its
// charge. Cached bytes belong to no query: they are outside every ledger,
// the governor's in_use() and MemPool::live_bytes(), which keep counting
// only memory live queries hold.

namespace vcq::runtime {

class BlockCache;

/// Owning handle of one block taken from a BlockCache. Destroying it, or
/// assigning another block over it, gives the block back. Move-only.
class Block {
 public:
  Block() = default;
  Block(Block&& other) noexcept
      : cache_(other.cache_), data_(other.data_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.capacity_ = 0;
  }
  Block& operator=(Block&& other) noexcept {
    if (this != &other) {
      Reset();
      cache_ = other.cache_;
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.capacity_ = 0;
    }
    return *this;
  }
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  ~Block() { Reset(); }

  /// nullptr for an empty block.
  std::byte* data() const { return data_; }
  /// Usable bytes: at least what Take asked for.
  size_t capacity() const { return capacity_; }

  /// Gives the block back now; the handle becomes empty.
  void Reset() noexcept;

 private:
  friend class BlockCache;
  Block(BlockCache* cache, std::byte* data, size_t capacity)
      : cache_(cache), data_(data), capacity_(capacity) {}

  BlockCache* cache_ = nullptr;
  std::byte* data_ = nullptr;
  size_t capacity_ = 0;
};

class BlockCache {
 public:
  /// The process-wide cache, bounded by ResourceGovernor::Global().
  static BlockCache& Global();

  explicit BlockCache(ResourceGovernor* governor);
  ~BlockCache();
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// A block of at least `bytes` (an empty block for 0): the smallest
  /// cached block whose capacity lies in [bytes, 2 * bytes); else, if a
  /// new block would not fit under the bound, the first block the bound
  /// frees that holds `bytes`; else a new allocation of exactly `bytes`.
  /// The contents are unspecified; Debug builds fill the first `bytes`
  /// with kPoison so a read before write shows. May throw std::bad_alloc;
  /// cached_bytes() stays exact.
  Block Take(size_t bytes);

  /// Frees every cached block.
  void Trim();

  size_t cached_bytes() const {
    return cached_.load(std::memory_order_relaxed);
  }

  static constexpr unsigned char kPoison = 0xA5;

 private:
  friend class Block;
  friend class ResourceGovernor;

  struct Cached {
    size_t capacity;
    std::byte* data;
  };

  /// Caches the block, then evicts the smallest blocks (this one among
  /// them) until the bound holds.
  void Give(std::byte* data, size_t capacity) noexcept;
  /// Frees the smallest cached blocks until the bound holds.
  void EnforceBound() noexcept;
  /// With mu_ held, frees the smallest cached blocks until cached +
  /// in_use + `incoming` fits under max(peak, in_use + incoming). For a
  /// nonzero `incoming`, the first block it would free that holds
  /// `incoming` bytes is unlinked and returned instead (empty if none):
  /// reusing it beats freeing it and faulting in a new block.
  Cached EvictLocked(size_t incoming) noexcept;

  ResourceGovernor* const governor_;
  std::mutex mu_;
  std::vector<Cached> blocks_;     // ascending capacity; mu_
  std::atomic<size_t> cached_{0};  // written under mu_
};

inline void Block::Reset() noexcept {
  if (data_ != nullptr) cache_->Give(data_, capacity_);
  data_ = nullptr;
  capacity_ = 0;
}

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_BLOCK_CACHE_H_
