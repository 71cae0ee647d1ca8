#ifndef VCQ_TECTORWISE_COMPACTION_H_
#define VCQ_TECTORWISE_COMPACTION_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "tectorwise/core.h"

// Adaptive batch compaction (cf. "Data Chunk Compaction in Vectorized
// Execution", SIGMOD'25, and paper §5.1 on sparse selection vectors).
//
// Sparse selection vectors make every downstream primitive pay full
// per-vector overhead for a trickle of tuples and degrade SIMD variants to
// gather speed (paper §5.1, Fig. 7). Every Tectorwise compaction point
// therefore densifies such batches: Select output and group-by input run
// through a Compactor, and the hash-join probe accumulates its hits in its
// own output buffers (hash_join.h) by the same density test.
//
// A Compactor copies the live values of every registered column of a
// sparse batch — a few live positions scattered over a full vector — into
// its own dense buffers, merging consecutive sparse batches until a full
// vector_size batch is accumulated, then republishes the column Slots to
// point at the dense buffers and emits the batch without a selection
// vector. Every downstream primitive then runs its dense path (contiguous
// loads, full SIMD lanes) and per-vector interpretation overhead amortizes
// over full vectors again.
//
// A batch is only absorbed when its density (count / vector_size) falls
// below kCompactionThreshold; dense batches pass through untouched, so the
// common path stays zero-copy. A non-empty batch is never below the
// threshold at vector_size <= 64, so compaction never fires there.

namespace vcq::tectorwise {

/// Density below which a batch is compacted: batches less than ~1.6% full.
/// This is where merged-batch savings clearly exceed the copy tax — this
/// engine's per-vector overhead is lean and the tax grows with every
/// registered column, so only truly sparse batches are worth copying.
inline constexpr double kCompactionThreshold = 1.0 / 64;

/// True when a batch of `count` live tuples is sparse enough to compact
/// (strict: a batch exactly at the threshold passes through).
inline bool IsSparse(size_t count, size_t vector_size) {
  return static_cast<double>(count) <
         kCompactionThreshold * static_cast<double>(vector_size);
}

/// Per-column append kernel bound to a column Slot by the steps.h factory
/// MakeCompact<T>: copies the `n` live values (per `sel`; null = dense) of
/// the bound column to `dst`.
using CompactStep =
    std::function<void(size_t n, const pos_t* sel, void* dst)>;

/// Accumulates the live rows of sparse batches into dense, operator-owned
/// column buffers and republishes the column Slots when a dense batch is
/// emitted. Owned by the operator at the compaction point; driven by its
/// Next() loop:
///
///   BeginBatch();                       // restore slots, shift carry-over
///   ...pull child, run steps -> count, sel...
///   if (!ShouldCompact(count)) emit batch unchanged;  // even with rows
///       // pending: those already live in the compactor's buffers and
///       // can wait for the backlog to fill (batch order is free)
///   else { Append(count, sel); if (Full()) emit Flush() rows dense; }
///   ...at child EOS: emit Flush() until pending() is 0...
///
/// With no registered column the Compactor only merges counts: nothing
/// above the compaction point reads a column (e.g. count(*)).
///
/// Buffers hold 2 * vector_size rows: Append() is only called while fewer
/// than vector_size rows are pending and a batch holds at most vector_size
/// rows, so capacity is never exceeded; Flush() publishes at most
/// vector_size rows and BeginBatch() moves the remainder to the front.
class Compactor {
 public:
  explicit Compactor(size_t vector_size) : vector_size_(vector_size) {}

  /// Registers a column for densification. `slot` must be republishable:
  /// its producer either resets `ptr` every batch (Scan) or writes into a
  /// fixed buffer the saved `ptr` keeps addressing (Map/join/group
  /// outputs).
  void AddColumn(Slot* slot, size_t elem_size, CompactStep step);

  /// Density test for a fresh batch with `count` live tuples.
  bool ShouldCompact(size_t count) const {
    return IsSparse(count, vector_size_);
  }

  size_t pending() const { return pending_; }
  bool Full() const { return pending_ >= vector_size_; }

  /// Restores republished slots to their producers' buffers and shifts any
  /// carry-over rows (beyond the last emitted vector) to the buffer front.
  /// Call once at the top of the operator's Next() before pulling anything.
  void BeginBatch();

  /// Appends the live rows of the current batch to the dense buffers.
  void Append(size_t n, const pos_t* sel);

  /// Publishes up to vector_size accumulated rows: repoints every
  /// registered slot at its dense buffer and returns the emitted count.
  size_t Flush();

 private:
  struct Column {
    Slot* slot;
    size_t elem_size;
    CompactStep step;
    VecBuffer buffer;          // 2 * vector_size rows
    const void* saved = nullptr;  // producer ptr to restore after a Flush
  };

  size_t vector_size_;
  std::vector<Column> columns_;
  size_t pending_ = 0;   // accumulated, not yet emitted rows
  size_t emitted_ = 0;   // rows published by the last Flush
};

}  // namespace vcq::tectorwise

#endif  // VCQ_TECTORWISE_COMPACTION_H_
