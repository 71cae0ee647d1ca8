#ifndef VCQ_RUNTIME_PRE_AGGREGATION_H_
#define VCQ_RUNTIME_PRE_AGGREGATION_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "runtime/cancel.h"
#include "runtime/fault_injector.h"
#include "runtime/hashmap.h"
#include "runtime/mem_pool.h"
#include "runtime/resource_governor.h"
#include "runtime/spill.h"
#include "runtime/trace.h"

// Two-phase hash aggregation shared by Typer and Tectorwise (paper §3.2,
// the morsel-driven scheme of Leis et al., SIGMOD 2014). Each engine keeps
// only its own lookup loop over LocalGroups::directory(); the rest is here.
//
//   pre-aggregation  a worker's LocalGroups indexes at most
//                    kLocalGroupCapacity groups in a fixed, cache-sized
//                    directory; each row lives in its hash partition's
//                    block (ledger-charged MemPool).
//   flush            a full table clears its directory: the rows stay in
//                    their blocks, a key seen again starts a new row, and
//                    under spill pressure every block goes to disk.
//   merge            after the scan, MergeGroups combines one partition at
//                    a time across all workers in one reused directory per
//                    merge worker, spilled rows before live ones. Output
//                    is first-seen (creation) order per partition, so
//                    spilled and in-memory runs are byte-identical.

namespace vcq::runtime {

inline constexpr size_t kGroupPartitions = 64;

inline size_t GroupPartitionOf(uint64_t hash) { return (hash >> 52) & 63; }

/// Groups a local table indexes before it flushes: the directory (32k
/// buckets, 256 KiB) and the live rows (512 KiB of Q18's 32-byte rows)
/// stay in a 2 MiB L2. 4k–32k measured alike at 1 thread; 16k was fastest
/// at 2 (ROADMAP, direction 3).
inline constexpr size_t kLocalGroupCapacity = 16384;

/// The run context of one aggregation: static fault-point and spill-file
/// names, and the plan node (`site`) its spill I/O and merge spans go to.
struct GroupEnv {
  const CancelToken* cancel = nullptr;
  FaultInjector* fault = nullptr;
  QueryLedger* ledger = nullptr;
  SpillManager* spill = nullptr;
  QueryTrace* trace = nullptr;
  uint32_t site = QueryTrace::kNoSite;
  const char* alloc_point = "";
  const char* merge_point = "";
  const char* spill_label = "";
};

/// A Hashmap whose bucket array is charged to the run's ledger, like the
/// join build's directory. Reset() clears it, growing it only when needed.
class GroupDirectory {
 public:
  explicit GroupDirectory(QueryLedger* ledger) : ledger_(ledger) {}
  ~GroupDirectory() {
    if (ledger_ != nullptr) ledger_->Uncharge(charged_);
  }

  void Reset(size_t entries) {
    if (ht.capacity() >= NextPow2(entries * 2)) return ht.Clear();
    ht.SetSize(entries);
    const size_t bytes = ht.capacity() * sizeof(uintptr_t);
    if (ledger_ != nullptr) ledger_->Charge(bytes - charged_);
    charged_ = bytes;
  }

  Hashmap ht;

 private:
  QueryLedger* ledger_;
  size_t charged_ = 0;
};

/// One worker's pre-aggregation state: the directory over the groups
/// created since the last flush, and the partition blocks (or spill
/// segments) holding every row the worker created. Rows are `stride`
/// bytes and begin with a Hashmap::EntryHeader.
class LocalGroups {
 public:
  LocalGroups(size_t stride, const GroupEnv& env)
      : stride_(stride),
        block_rows_(std::max<size_t>(1, kBlockBytes / stride)),
        env_(env),
        dir_(env.ledger) {
    pool_.Bind(env.ledger, env.fault, env.alloc_point);
    dir_.Reset(kLocalGroupCapacity);
  }

  const Hashmap& directory() const { return dir_.ht; }
  bool full() const { return live_ >= kLocalGroupCapacity; }
  /// Most groups the directory indexed at once.
  size_t peak_live() const { return peak_live_; }
  size_t stride() const { return stride_; }
  /// Rows of partition `p`, in memory and spilled.
  size_t rows(size_t p) const { return parts_[p].rows + spilled_[p]; }

  /// A new row for `hash` in its partition block, linked into the
  /// directory; the caller initializes everything after the header.
  std::byte* Insert(uint64_t hash) {
    Part& part = parts_[GroupPartitionOf(hash)];
    if (part.cursor == part.end) {
      part.cursor = static_cast<std::byte*>(pool_.Allocate(BlockBytes()));
      part.end = part.cursor + BlockBytes();
      part.blocks.push_back(part.cursor);
    }
    std::byte* row = part.cursor;
    part.cursor += stride_;
    ++part.rows;
    dir_.ht.InsertUnlocked(new (row) Hashmap::EntryHeader{nullptr, hash});
    peak_live_ = std::max(peak_live_, ++live_);
    return row;
  }

  /// Clears the directory: every row created so far is flushed. Under
  /// spill pressure each partition's rows go to disk as one segment.
  void Flush() {
    dir_.ht.Clear();
    live_ = 0;
    if (env_.spill == nullptr || env_.ledger == nullptr ||
        !env_.ledger->UnderPressure())
      return;
    if (file_ == nullptr)
      file_ = env_.spill->Create(env_.spill_label, env_.site);
    std::vector<std::byte> buf;
    for (uint32_t p = 0; p < kGroupPartitions; ++p) {
      Part& part = parts_[p];
      if (part.rows == 0) continue;
      buf.resize(part.rows * stride_);
      std::byte* dst = buf.data();
      ForEachBlock(part, [&](std::byte* base, size_t bytes) {
        dst = static_cast<std::byte*>(std::memcpy(dst, base, bytes)) + bytes;
      });
      file_->Append(p, buf.data(), buf.size(), part.rows);
      spilled_[p] += part.rows;
      part = Part{};
    }
    pool_.Release();
  }

  /// Calls fn(row, owned) for every row of partition `p` in creation
  /// order: spilled rows (read into `buf`, owned = false), then the rows
  /// in blocks (owned = true).
  template <typename Fn>
  void ForEachRow(uint32_t p, std::vector<std::byte>& buf, Fn&& fn) {
    for (size_t i = 0; spilled_[p] > 0 && i < file_->segments().size(); ++i) {
      const SpillFile::Segment& seg = file_->segments()[i];
      if (seg.partition != p) continue;
      buf.resize(seg.bytes);
      file_->Read(seg, buf.data());
      for (size_t k = 0; k < seg.bytes; k += stride_) fn(&buf[k], false);
    }
    ForEachBlock(parts_[p], [&](std::byte* base, size_t bytes) {
      for (size_t k = 0; k < bytes; k += stride_) fn(base + k, true);
    });
  }

 private:
  // Page-sized blocks carved from 256 KiB chunks: a group-by with few
  // groups holds one chunk, not a large block per partition.
  static constexpr size_t kBlockBytes = 4 << 10;
  static constexpr size_t kChunkBytes = 256 << 10;

  struct Part {
    std::vector<std::byte*> blocks;
    std::byte* cursor = nullptr;
    std::byte* end = nullptr;
    size_t rows = 0;
  };

  size_t BlockBytes() const { return block_rows_ * stride_; }

  /// fn(base, bytes) for each block of `part`, over its filled bytes.
  template <typename Fn>
  void ForEachBlock(const Part& part, Fn&& fn) const {
    for (size_t b = 0; b < part.blocks.size(); ++b)
      fn(part.blocks[b],
         std::min(block_rows_, part.rows - b * block_rows_) * stride_);
  }

  const size_t stride_;
  const size_t block_rows_;
  GroupEnv env_;
  MemPool pool_{kChunkBytes};
  GroupDirectory dir_;
  size_t live_ = 0;
  size_t peak_live_ = 0;
  std::array<Part, kGroupPartitions> parts_;
  std::array<size_t, kGroupPartitions> spilled_{};
  SpillFile* file_ = nullptr;
};

/// Rows the merge reads: every worker's flushed entries.
inline size_t FlushedRows(const std::vector<LocalGroups*>& locals) {
  size_t total = 0;
  for (size_t p = 0; p < kGroupPartitions; ++p) {
    for (const LocalGroups* l : locals) total += l != nullptr ? l->rows(p) : 0;
  }
  return total;
}

/// Phase two for merge worker `wid` of `threads`: merges partitions wid,
/// wid + threads, ... of every worker's rows into merged[p], first-seen
/// order. A nullptr local (a worker that died mid-scan) is skipped.
/// `eq(const std::byte*, const std::byte*)` compares keys and
/// `combine(std::byte* into, const std::byte* from)` folds aggregates.
/// Block rows are linked in place; spilled first occurrences are copied
/// into `pool`. Traced runs record one "group.merge" span per worker
/// whose tuples are the rows it read.
template <typename EqFn, typename CombineFn>
void MergeGroups(const std::vector<LocalGroups*>& locals, size_t wid,
                 size_t threads, const GroupEnv& env, MemPool& pool,
                 std::array<std::vector<std::byte*>, kGroupPartitions>& merged,
                 EqFn&& eq, CombineFn&& combine) {
  TraceSpan span{"operator", "group.merge", QueryTrace::NowNs(), 0, 0,
                 env.site};
  GroupDirectory dir(env.ledger);
  std::vector<std::byte> buf;
  for (uint32_t p = wid; p < kGroupPartitions; p += threads) {
    // Poll per partition: a trip after the scan drains promptly.
    if (Interrupted(env.cancel)) return;
    FaultHit(env.fault, env.merge_point, env.cancel);
    size_t total = 0;
    for (const LocalGroups* l : locals) total += l != nullptr ? l->rows(p) : 0;
    if (total == 0) continue;
    span.tuples += total;
    dir.Reset(total);
    std::vector<std::byte*>& out = merged[p];
    out.reserve(total);
    for (LocalGroups* l : locals) {
      if (l == nullptr) continue;
      l->ForEachRow(p, buf, [&](std::byte* row, bool owned) {
        const uint64_t hash =
            reinterpret_cast<Hashmap::EntryHeader*>(row)->hash;
        for (Hashmap::EntryHeader* e = dir.ht.FindChainTagged(hash);
             e != nullptr; e = e->next) {
          auto* group = reinterpret_cast<std::byte*>(e);
          if (e->hash == hash && eq(group, row)) return combine(group, row);
        }
        if (!owned) {
          row = static_cast<std::byte*>(
              std::memcpy(pool.Allocate(l->stride()), row, l->stride()));
        }
        dir.ht.InsertUnlocked(reinterpret_cast<Hashmap::EntryHeader*>(row));
        out.push_back(row);
      });
    }
  }
  if (env.trace != nullptr) {
    span.end_ns = QueryTrace::NowNs();
    env.trace->AddLaneSpan(static_cast<uint32_t>(wid), std::move(span));
  }
}

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_PRE_AGGREGATION_H_
