#include "runtime/block_cache.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace vcq::runtime {

namespace {

// 64-byte alignment: a block is a cache-line-aligned run of hash-table
// entries or buckets.
constexpr std::align_val_t kAlign{64};

}  // namespace

BlockCache& BlockCache::Global() {
  // Never destroyed: a pool or hash table that outlives static
  // destruction still gives its block back to a live cache.
  static BlockCache* cache = new BlockCache(&ResourceGovernor::Global());
  return *cache;
}

BlockCache::BlockCache(ResourceGovernor* governor) : governor_(governor) {
  governor_->cache_.store(this, std::memory_order_release);
}

BlockCache::~BlockCache() {
  governor_->cache_.store(nullptr, std::memory_order_release);
  Trim();
}

Block BlockCache::Take(size_t bytes) {
  if (bytes == 0) return Block{};
  std::byte* data = nullptr;
  size_t capacity = bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // blocks_ is sorted by capacity: the first block of at least `bytes`
    // is the best fit.
    const auto it = std::lower_bound(
        blocks_.begin(), blocks_.end(), bytes,
        [](const Cached& b, size_t n) { return b.capacity < n; });
    if (it != blocks_.end() && it->capacity / 2 < bytes) {
      capacity = it->capacity;
      data = it->data;
      blocks_.erase(it);
      cached_.store(cached_.load(std::memory_order_relaxed) - capacity,
                    std::memory_order_relaxed);
    } else if (const Cached reuse = EvictLocked(bytes); reuse.data != nullptr) {
      capacity = reuse.capacity;
      data = reuse.data;
    }
  }
  if (data == nullptr)
    data = static_cast<std::byte*>(::operator new(bytes, kAlign));
#ifndef NDEBUG
  std::memset(data, kPoison, bytes);
#endif
  return Block(this, data, capacity);
}

void BlockCache::Give(std::byte* data, size_t capacity) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  try {
    blocks_.insert(std::upper_bound(blocks_.begin(), blocks_.end(), capacity,
                                    [](size_t n, const Cached& b) {
                                      return n < b.capacity;
                                    }),
                   Cached{capacity, data});
  } catch (const std::bad_alloc&) {
    ::operator delete(data, kAlign);  // no room to remember it
    return;
  }
  cached_.store(cached_.load(std::memory_order_relaxed) + capacity,
                std::memory_order_relaxed);
  EvictLocked(0);
}

void BlockCache::Trim() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Cached& b : blocks_) ::operator delete(b.data, kAlign);
  blocks_.clear();
  cached_.store(0, std::memory_order_relaxed);
}

void BlockCache::EnforceBound() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  EvictLocked(0);
}

BlockCache::Cached BlockCache::EvictLocked(size_t incoming) noexcept {
  const size_t in_use = governor_->in_use() + incoming;
  const size_t peak = std::max(governor_->peak(), in_use);
  size_t cached = cached_.load(std::memory_order_relaxed);
  Cached reuse{0, nullptr};
  auto end = blocks_.begin();
  for (; end != blocks_.end() && cached + in_use > peak; ++end) {
    cached -= end->capacity;
    if (reuse.data == nullptr && incoming > 0 && end->capacity >= incoming)
      reuse = *end;
    else
      ::operator delete(end->data, kAlign);
  }
  blocks_.erase(blocks_.begin(), end);
  cached_.store(cached, std::memory_order_relaxed);
  return reuse;
}

// Defined here, not in resource_governor.h: lowering the peak lowers the
// cache's bound, so the attached cache is trimmed to it.
void ResourceGovernor::ResetPeak() {
  peak_.store(in_use_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  if (BlockCache* cache = cache_.load(std::memory_order_acquire))
    cache->EnforceBound();
}

}  // namespace vcq::runtime
