#ifndef VCQ_TECTORWISE_CORE_H_
#define VCQ_TECTORWISE_CORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "runtime/cancel.h"
#include "runtime/options.h"

// Tectorwise execution core (paper §2): pull-based operators exchanging
// vectors of a configurable size, with selection vectors marking the active
// subset of the current batch. Work happens in type-specialized primitives;
// the operators only orchestrate ("interpretation" that amortizes over the
// whole vector, §4.2). Sparse batches are merged into full ones at the
// three compaction points — Select output, hash-join probe output and
// group-by input — so that overhead keeps amortizing (see compaction.h).

namespace vcq::tectorwise {

/// Position within the current batch (VectorWise-style selection vectors).
using pos_t = uint32_t;

/// Returned by Operator::Next when the input is exhausted.
inline constexpr size_t kEndOfStream = ~size_t{0};

/// Default vector size; the paper's default (and VectorWise's) is 1000
/// tuples — we use 1024 and sweep the whole range in Fig. 5.
inline constexpr size_t kDefaultVectorSize = 1024;

/// A stable location holding the current batch's base pointer for one
/// column. Producers update slots every batch; consumers capture `Slot*`
/// once at plan-build time. This is the vectorized engine's column wiring.
struct Slot {
  const void* ptr = nullptr;
};

template <typename T>
inline const T* Get(const Slot* slot) {
  return static_cast<const T*>(slot->ptr);
}

/// Per-plan execution settings (threads come from the runner; SIMD toggles
/// the AVX-512 primitive variants for the §5 experiments).
struct ExecContext {
  size_t vector_size = kDefaultVectorSize;
  bool use_simd = false;
  /// Cooperative cancellation/deadline token, polled at morsel boundaries
  /// by Scan (every pipeline bottoms out at one, so an interrupted run
  /// drains with barriers balanced; see runtime/cancel.h). nullptr = not
  /// cancellable.
  const runtime::CancelToken* cancel = nullptr;
  /// Per-query memory ledger: operator arenas (join materialize, group
  /// entries) Bind() their pools to it so allocation is charged against the
  /// run's budget; a breach soft-trips `cancel` with kResourceExhausted.
  /// nullptr = ungoverned.
  runtime::QueryLedger* ledger = nullptr;
  /// Deterministic fault injector; nullptr = fault points compiled to a
  /// single null check.
  runtime::FaultInjector* fault = nullptr;
  /// Per-execution spill state (runtime/spill.h): when set (and `ledger`
  /// reports pressure), HashJoin's build materialize and HashGroup's local
  /// tables evict completed state to temp files instead of letting the
  /// budget trip the run. nullptr = spill disabled.
  runtime::SpillManager* spill = nullptr;
  /// Per-execution span sink (runtime/trace.h). When set, every operator
  /// the plan instantiates is wrapped in a timing shim (one span per
  /// node per worker plus per-site row/ns aggregates) and spill files
  /// carry their node's index for per-node byte attribution. nullptr =
  /// tracing off — the instantiation path is unchanged.
  runtime::QueryTrace* trace = nullptr;
  /// Plan-node index of the node this context was stamped for on traced
  /// runs (plan.cc NodeContext); UINT32_MAX outside node scope. Lets deep
  /// operator code (spill sites) attribute I/O to its plan node without
  /// widening every constructor.
  uint32_t site = UINT32_MAX;
};

/// Pull-based operator: Next() produces the next batch and returns the
/// number of active tuples (kEndOfStream at end). If sel() is non-null it
/// lists the `count` active positions within the batch; otherwise positions
/// 0..count-1 are active. Column data is exposed through Slots owned by the
/// producing operator.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual size_t Next() = 0;

  const pos_t* sel() const { return sel_; }

 protected:
  const pos_t* sel_ = nullptr;
};

/// Fixed-capacity, 64-byte-aligned scratch buffer for intermediate vectors —
/// the materialization cost that distinguishes vectorized from fused
/// execution (paper §4.1).
class VecBuffer {
 public:
  VecBuffer() = default;
  explicit VecBuffer(size_t bytes) { Reset(bytes); }

  void Reset(size_t bytes) {
    bytes_ = bytes;
    storage_.reset(new (std::align_val_t(64)) std::byte[bytes]);
  }

  template <typename T>
  T* As() {
    return reinterpret_cast<T*>(storage_.get());
  }
  template <typename T>
  const T* As() const {
    return reinterpret_cast<const T*>(storage_.get());
  }
  void* data() { return storage_.get(); }
  size_t bytes() const { return bytes_; }

 private:
  struct AlignedDelete {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t(64));
    }
  };
  std::unique_ptr<std::byte[], AlignedDelete> storage_;
  size_t bytes_ = 0;
};

}  // namespace vcq::tectorwise

#endif  // VCQ_TECTORWISE_CORE_H_
