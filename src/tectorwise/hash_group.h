#ifndef VCQ_TECTORWISE_HASH_GROUP_H_
#define VCQ_TECTORWISE_HASH_GROUP_H_

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/bit_util.h"
#include "runtime/barrier.h"
#include "runtime/hashmap.h"
#include "runtime/mem_pool.h"
#include "runtime/pre_aggregation.h"
#include "tectorwise/core.h"
#include "tectorwise/operators.h"
#include "tectorwise/steps.h"

namespace vcq::tectorwise {

/// Vectorized hash aggregation (paper §2.2, §3.2), the two-phase scheme of
/// runtime/pre_aggregation.h. Phase one: each worker pre-aggregates into a
/// bounded local table (runtime::LocalGroups) that flushes at the first
/// batch boundary where it is full, so it exceeds its capacity by at most
/// one batch. Phase two (after a barrier): each worker merges all workers'
/// flushed rows for its partitions and emits them vector-at-a-time.
///
/// Group lookup mirrors the join's probe structure: hash primitives ->
/// tagged candidates -> per-key-column compare primitives -> advance loop;
/// tuples without a group take a scalar insert path that re-checks the
/// local table (the semantics of the paper's partition-then-insert trick
/// without duplicate groups). Aggregates are int64-valued (sum, count,
/// min, max) so the merge combine is a per-aggregate elementwise fold and
/// key equality is a memcmp over the zero-padded key region.
///
/// Both ends of the operator keep batches dense: sparse input batches are
/// merged by the input Compactor before the group lookup (compaction.h),
/// and Next() packs groups from consecutive owned partitions into full
/// output vectors.
class HashGroup : public Operator {
 public:
  static constexpr size_t kPartitions = runtime::kGroupPartitions;

  struct Shared {
    explicit Shared(size_t thread_count)
        : barrier(thread_count), locals(thread_count, nullptr) {}

    runtime::Barrier barrier;
    /// Per-worker local tables, published before the phase barrier
    /// (nullptr for a worker that died mid-scan).
    std::vector<runtime::LocalGroups*> locals;
    std::array<std::vector<std::byte*>, kPartitions> merged;  // per partition
  };

  HashGroup(Shared* shared, size_t worker_id, size_t worker_count,
            std::unique_ptr<Operator> child, const ExecContext& ctx);

  // --- key / aggregate configuration (before first Next) -------------------

  /// Adds a grouping key column; returns its entry byte offset. Key and
  /// aggregate columns are auto-registered with the input Compactor, so
  /// the group-by compaction point needs no extra plan wiring: sparse
  /// input batches are densified before the group lookup.
  template <typename T>
  size_t AddKey(Slot* col) {
    VCQ_CHECK_MSG(agg_begin_ == 0, "keys must be added before aggregates");
    CompactColumn<T>(ctx_, compactor_, col);
    const size_t offset = AlignUp(key_end_, alignof(T));
    key_end_ = offset + sizeof(T);
    hash_steps_.push_back(key_steps_.empty()
                              ? KeyHashKind{MakeHash<T>(ctx_, col), {}}
                              : KeyHashKind{{}, MakeRehash<T>(ctx_, col)});
    key_steps_.push_back(KeySteps{
        // vectorized candidate compare
        [col, offset](size_t m, runtime::Hashmap::EntryHeader* const* cand,
                      const pos_t* cand_pos, uint8_t* match, bool first) {
          if (first) {
            CmpEntryKeyInit<T>(m, cand, cand_pos, Get<T>(col), offset, match);
          } else {
            CmpEntryKeyAnd<T>(m, cand, cand_pos, Get<T>(col), offset, match);
          }
        },
        // scalar equality for the miss/insert path
        [col, offset](const std::byte* entry, pos_t p) {
          return *reinterpret_cast<const T*>(entry + offset) ==
                 Get<T>(col)[p];
        },
        // scalar key init for new groups
        [col, offset](std::byte* entry, pos_t p) {
          *reinterpret_cast<T*>(entry + offset) = Get<T>(col)[p];
        }});
    return offset;
  }

  /// Adds sum(col) over an int64 column; returns the aggregate's offset.
  size_t AddSumAgg(Slot* col);
  /// Adds count(*); returns the aggregate's offset.
  size_t AddCountAgg();
  /// Adds min(col) over an int64 column; returns the aggregate's offset.
  size_t AddMinAgg(Slot* col);
  /// Adds max(col) over an int64 column; returns the aggregate's offset.
  size_t AddMaxAgg(Slot* col);

  // --- outputs (entry fields gathered into dense vectors) -----------------

  template <typename T>
  Slot* AddOutput(size_t field_offset) {
    outputs_.push_back(Output{VecBuffer(ctx_.vector_size * sizeof(T)),
                              std::make_unique<Slot>(), {}});
    Output& o = outputs_.back();
    o.slot->ptr = o.buffer.data();
    T* out = o.buffer.As<T>();
    o.gather = [field_offset, out](size_t m, std::byte* const* entries) {
      for (size_t k = 0; k < m; ++k)
        out[k] = *reinterpret_cast<const T*>(entries[k] + field_offset);
    };
    return o.slot.get();
  }

  size_t Next() override;

  /// This worker's local table (nullptr before its first input batch).
  const runtime::LocalGroups* local_groups() const { return local_.get(); }

 private:
  struct KeyHashKind {
    HashStep hash;      // set for the first key
    RehashStep rehash;  // set for subsequent keys
  };
  struct KeySteps {
    std::function<void(size_t, runtime::Hashmap::EntryHeader* const*,
                       const pos_t*, uint8_t*, bool)>
        compare;
    std::function<bool(const std::byte*, pos_t)> equal;
    std::function<void(std::byte*, pos_t)> init;
  };
  struct Output {
    VecBuffer buffer;
    std::unique_ptr<Slot> slot;
    std::function<void(size_t m, std::byte* const* entries)> gather;
  };

  size_t entry_size() const { return AlignUp(agg_end_, 8); }
  runtime::GroupEnv env() const;
  void ConsumeChild();
  void ProcessBatch(size_t n, const pos_t* sel);
  void FindGroups(size_t n);
  std::byte* InsertGroup(uint64_t hash, pos_t p);
  void MergePartitions();

  Shared* shared_;
  size_t worker_id_;
  size_t worker_count_;
  std::unique_ptr<Operator> child_;
  ExecContext ctx_;

  enum class AggKind : uint8_t { kSum, kCount, kMin, kMax };
  struct AggDecl {
    size_t offset;
    const Slot* col;  // nullptr for count(*)
    AggKind kind;
  };

  size_t AddAgg(Slot* col, AggKind kind);

  std::vector<KeyHashKind> hash_steps_;
  std::vector<KeySteps> key_steps_;
  std::vector<AggDecl> aggs_;
  std::vector<Output> outputs_;

  size_t key_end_ = sizeof(runtime::Hashmap::EntryHeader);
  size_t agg_begin_ = 0;
  size_t agg_end_ = 0;

  std::unique_ptr<runtime::LocalGroups> local_;
  runtime::MemPool merge_pool_;  // owns entries rehydrated from spill files
  Compactor compactor_;  // input densification (batch compaction point)

  bool consumed_ = false;
  size_t emit_partition_ = 0;  // owned-partition cursor (worker-strided)
  size_t emit_index_ = 0;

  // Scratch vectors.
  VecBuffer hashes_;
  VecBuffer pos_;
  VecBuffer groups_;
  VecBuffer cand_;
  VecBuffer cand_k_;
  VecBuffer cand_pos_;
  VecBuffer match_;
  VecBuffer emit_entries_;  // gather list of the next output batch
};

}  // namespace vcq::tectorwise

#endif  // VCQ_TECTORWISE_HASH_GROUP_H_
