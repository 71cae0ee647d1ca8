#ifndef VCQ_TECTORWISE_OPERATORS_H_
#define VCQ_TECTORWISE_OPERATORS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/fault_injector.h"
#include "runtime/relation.h"
#include "runtime/worker_pool.h"
#include "tectorwise/compaction.h"
#include "tectorwise/core.h"

// Basic Tectorwise operators: Scan, Select, Map, FixedAggregation. The
// joins and group-by live in hash_join.h / hash_group.h. Each worker builds
// its own operator tree; shared-state structs (morsel queues, hash tables,
// barriers) coordinate the workers (paper §6.1).

namespace vcq::tectorwise {

/// Type-erased vector step signatures. Operators hold chains of these; the
/// per-batch std::function dispatch is exactly the interpretation overhead
/// the paper shows amortizes to <1.5% of runtime (§4.2).
using SelStep =
    std::function<size_t(size_t n, const pos_t* sel_in, pos_t* sel_out)>;
using MapStep = std::function<void(size_t n, const pos_t* sel)>;

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Morsel-driven table scan: claims tuple ranges from the shared queue and
/// serves them vector-at-a-time by bumping column base pointers (zero copy).
class Scan : public Operator {
 public:
  struct Shared {
    explicit Shared(size_t tuple_count,
                    size_t grain = runtime::MorselQueue::kDefaultGrain)
        : morsels(tuple_count, grain) {}
    runtime::MorselQueue morsels;
  };

  Scan(Shared* shared, const runtime::Relation* relation, size_t vector_size,
       const runtime::CancelToken* cancel = nullptr,
       runtime::FaultInjector* fault = nullptr)
      : shared_(shared),
        relation_(relation),
        vector_size_(vector_size),
        cancel_(cancel),
        fault_(fault) {}

  /// Registers a column; the returned Slot tracks the current batch.
  template <typename T>
  Slot* AddColumn(std::string_view name) {
    columns_.push_back(Column{
        reinterpret_cast<const std::byte*>(relation_->Col<T>(name).data()),
        sizeof(T), std::make_unique<Slot>()});
    return columns_.back().slot.get();
  }

  size_t Next() override;

 private:
  struct Column {
    const std::byte* base;
    size_t elem_size;
    std::unique_ptr<Slot> slot;
  };

  Shared* shared_;
  const runtime::Relation* relation_;
  size_t vector_size_;
  const runtime::CancelToken* cancel_;
  runtime::FaultInjector* fault_;
  std::vector<Column> columns_;
  size_t morsel_begin_ = 0;
  size_t morsel_end_ = 0;
};

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

/// Conjunctive filter: a cascade of selection primitives, each narrowing the
/// selection vector (Fig. 1b). Skips empty batches internally.
///
/// A Select is the pipeline's primary compaction point: sparse result
/// batches are merged into dense ones through the Compactor. Plans must
/// register every column consumed above the Select via CompactColumn<T>(ctx,
/// select->compactor(), slot) — unregistered columns keep their original
/// batch layout and would be misread through compacted positions. The plan
/// builder derives these registrations from slot usage (plan.h).
class Select : public Operator {
 public:
  Select(std::unique_ptr<Operator> child, size_t vector_size);

  void AddStep(SelStep step) { steps_.push_back(std::move(step)); }

  size_t Next() override;

  Operator* child() { return child_.get(); }
  Compactor& compactor() { return compactor_; }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<SelStep> steps_;
  VecBuffer buf_a_;
  VecBuffer buf_b_;
  Compactor compactor_;
  bool child_eos_ = false;
};

// ---------------------------------------------------------------------------
// Map (projection)
// ---------------------------------------------------------------------------

/// Computes derived columns into owned buffers, position-aligned with the
/// child's batch (intermediate-result materialization, §4.1).
class Map : public Operator {
 public:
  Map(std::unique_ptr<Operator> child, size_t vector_size)
      : child_(std::move(child)), vector_size_(vector_size) {}

  /// Allocates an output column buffer; wire the returned slot into a step.
  template <typename T>
  Slot* AddOutput() {
    outputs_.push_back(Output{VecBuffer(vector_size_ * sizeof(T)),
                              std::make_unique<Slot>()});
    outputs_.back().slot->ptr = outputs_.back().buffer.data();
    return outputs_.back().slot.get();
  }

  /// Raw pointer to the buffer behind an output slot (for step factories).
  template <typename T>
  T* OutputData(Slot* slot) {
    return const_cast<T*>(static_cast<const T*>(slot->ptr));
  }

  void AddStep(MapStep step) { steps_.push_back(std::move(step)); }

  size_t Next() override;

 private:
  struct Output {
    VecBuffer buffer;
    std::unique_ptr<Slot> slot;
  };

  std::unique_ptr<Operator> child_;
  size_t vector_size_;
  std::vector<Output> outputs_;
  std::vector<MapStep> steps_;
};

// ---------------------------------------------------------------------------
// FixedAggregation
// ---------------------------------------------------------------------------

/// Group-less aggregation (Q1.1 / Q6 style "select sum(...)"): drains the
/// child, accumulating into worker-local totals, then emits a single row.
/// Cross-worker combining (by the same aggregate kind) happens in the
/// collector. A worker that saw no rows emits the fold identity (0 for
/// sum/count, INT64_MAX/MIN for min/max) so collectors can fold partials
/// unconditionally.
class FixedAggregation : public Operator {
 public:
  enum class AggKind : uint8_t { kSum, kCount, kMin, kMax };

  explicit FixedAggregation(std::unique_ptr<Operator> child)
      : child_(std::move(child)) {}

  /// Adds a sum over an int64 column; the returned slot exposes the total.
  Slot* AddSumI64(const Slot* input);
  /// Adds count(*); the returned slot exposes the worker-local row count.
  Slot* AddCount();
  /// Adds min(col) over an int64 column.
  Slot* AddMinI64(const Slot* input);
  /// Adds max(col) over an int64 column.
  Slot* AddMaxI64(const Slot* input);

  size_t Next() override;

 private:
  struct Agg {
    const Slot* input;  // nullptr for count(*)
    AggKind kind = AggKind::kSum;
    int64_t total = 0;
    std::unique_ptr<Slot> slot;
  };

  Slot* AddAgg(const Slot* input, AggKind kind);

  std::unique_ptr<Operator> child_;
  std::vector<std::unique_ptr<Agg>> aggs_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// OrderedAggregation
// ---------------------------------------------------------------------------

/// Micro-adaptive ordered aggregation (paper §8.4): per vector, tuples are
/// partitioned into one selection vector per distinct key code (keys are
/// one-byte columns packed into a small integer); each partition is then
/// aggregated with partial sums held in registers and a single group update
/// per vector — the VectorWise optimization that beats plain Tectorwise on
/// Q1 (Table 2). A vector with more than `max_groups` distinct codes would
/// need the exponential backoff to hash aggregation, which is not
/// implemented: it check-fails (Q1's four groups never trigger it).
///
/// Groups are worker-local; Next() emits them ordered by key code at
/// end-of-stream, and cross-worker merging happens in the collector.
class OrderedAggregation : public Operator {
 public:
  static constexpr size_t kMaxKeys = 4;

  OrderedAggregation(std::unique_ptr<Operator> child, const ExecContext& ctx,
                     size_t max_groups)
      : child_(std::move(child)), ctx_(ctx), max_groups_(max_groups) {}

  /// Adds a one-byte (Char<1>) grouping key; returns its output slot.
  Slot* AddKeyChar1(const Slot* input);
  /// Adds sum(input) over an int64 column; returns its output slot.
  Slot* AddSumI64(const Slot* input);
  /// Adds count(*); returns its output slot.
  Slot* AddCount();

  size_t Next() override;

 private:
  void Consume();
  Slot* AddAgg(const Slot* input);

  struct Output {
    VecBuffer buffer;
    std::unique_ptr<Slot> slot;
  };

  std::unique_ptr<Operator> child_;
  ExecContext ctx_;
  size_t max_groups_;
  std::vector<const Slot*> keys_;
  std::vector<const Slot*> aggs_;  // nullptr => count(*)
  std::vector<Output> key_out_;
  std::vector<Output> agg_out_;
  std::map<uint32_t, std::vector<int64_t>> groups_;  // code -> accumulators
  std::map<uint32_t, std::vector<int64_t>>::const_iterator emit_;
  bool consumed_ = false;
};

}  // namespace vcq::tectorwise

#endif  // VCQ_TECTORWISE_OPERATORS_H_
