#ifndef VCQ_RUNTIME_RESOURCE_GOVERNOR_H_
#define VCQ_RUNTIME_RESOURCE_GOVERNOR_H_

#include <atomic>
#include <cstddef>

#include "runtime/cancel.h"

// The resource-governance layer: memory budgets that fail a QUERY instead
// of the process.
//
// Two nested scopes share one mechanism. A QueryLedger is created per
// execution (vcq::PreparedQuery::Execute) and charged by every MemPool and
// join-build arena the run binds it to; crossing the per-query budget —
// QueryOptions::memory_budget — trips the run's CancelToken with
// kResourceExhausted. The ResourceGovernor is process-wide: every ledger
// charge also counts against its global budget, so N concurrent queries
// cannot collectively exceed the process bound even when each is within
// its own.
//
// Trips are SOFT: Charge() never throws and never blocks — it lets the
// allocation that crossed the line proceed (overshoot is bounded by one
// pool chunk) and relies on the sticky token to drain the query at its
// next morsel poll / barrier. This keeps the common failure path entirely
// exception-free: pools release on the normal unwind, barriers stay
// balanced, and the caller gets QueryResult::Failed(kResourceExhausted).
// Hard std::bad_alloc (real OOM, injected faults) is the separate,
// exception-based path handled by the scheduler's backstop.
//
// Spill mode (PR 8) turns the trip into PRESSURE: a spill-enabled run
// (QueryOptions::spill → QueryLedger::EnableSpillMode) treats a budget
// overage as a signal, not a verdict — Charge() leaves the token alone and
// UnderPressure() starts returning true, and spill-capable operators (the
// join builds' materialize phase, the worker-local group tables) poll it
// at chunk/batch boundaries and evict state to runtime::SpillManager temp
// files until usage drops back under the budget. The pressure signal is
// computed live from current usage, so relieving memory clears it without
// any reset call. bad_alloc remains the hard backstop in both modes.
//
// Memory a query gives back may stay warm in runtime::BlockCache (see
// runtime/block_cache.h) for the next execution. Those cached bytes are
// outside every ledger and outside in_use(): the cache holds them only
// while cached + in_use() <= peak(), so it never lifts the process above
// the governed high-water mark already reached.

namespace vcq::runtime {

class BlockCache;

/// Process-wide memory accountant. Budget 0 = unlimited (the default:
/// standalone benches run ungoverned, exactly the seed behavior).
class ResourceGovernor {
 public:
  static ResourceGovernor& Global() {
    static ResourceGovernor g;
    return g;
  }

  ResourceGovernor() = default;
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Sets the process-wide budget in bytes (0 = unlimited). Takes effect
  /// on the next charge; already-admitted overage drains cooperatively.
  void SetBudget(size_t bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  size_t budget() const { return budget_.load(std::memory_order_relaxed); }

  /// Accounts `bytes`; returns false when the charge pushed usage past the
  /// budget (the caller trips its token — the governor itself has no idea
  /// which query crossed the line last).
  bool Charge(size_t bytes) {
    const size_t now = in_use_.fetch_add(bytes, std::memory_order_relaxed) +
                       bytes;
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    const size_t budget = budget_.load(std::memory_order_relaxed);
    return budget == 0 || now <= budget;
  }

  void Uncharge(size_t bytes) {
    in_use_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// True while current usage exceeds a nonzero process budget — the
  /// process-wide half of the spill pressure signal.
  bool OverBudget() const {
    const size_t budget = budget_.load(std::memory_order_relaxed);
    return budget != 0 && in_use_.load(std::memory_order_relaxed) > budget;
  }

  /// Bytes currently charged across all live ledgers; the sweep test
  /// asserts this returns to its pre-query baseline after every failure.
  size_t in_use() const { return in_use_.load(std::memory_order_relaxed); }
  /// High-water mark since ResetPeak (bench/ablation_memory_pressure).
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Restarts the high-water mark at current usage and trims the attached
  /// BlockCache to the lowered bound (defined in runtime/block_cache.cc).
  void ResetPeak();

 private:
  friend class BlockCache;

  std::atomic<size_t> budget_{0};
  std::atomic<size_t> in_use_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<BlockCache*> cache_{nullptr};  // the cache bounded by peak_
};

/// Per-execution memory ledger. Thread-safe: all of a run's workers charge
/// concurrently through the pools bound to it. Destroying the ledger
/// returns any residual charge to the governor, so process-wide accounting
/// is exact even if an unwind skipped an Uncharge.
class QueryLedger {
 public:
  /// `budget` bytes for this query (0 = unlimited); `token` is tripped
  /// with kResourceExhausted when either this budget or the governor's is
  /// crossed.
  QueryLedger(size_t budget, const CancelToken* token,
              ResourceGovernor* governor = &ResourceGovernor::Global())
      : budget_(budget), token_(token), governor_(governor) {}

  QueryLedger(const QueryLedger&) = delete;
  QueryLedger& operator=(const QueryLedger&) = delete;

  ~QueryLedger() {
    const size_t residue = in_use_.load(std::memory_order_relaxed);
    if (residue != 0) governor_->Uncharge(residue);
  }

  /// Soft charge: accounts the bytes, trips the token on overage, never
  /// throws (see file comment for why). In spill mode overage becomes
  /// pressure instead of a trip — see UnderPressure().
  void Charge(size_t bytes) {
    const size_t now =
        in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    bool over = budget_ != 0 && now > budget_;
    if (!governor_->Charge(bytes)) over = true;
    if (over && !spill_mode_ && token_ != nullptr) {
      // Observability before the sticky trip: only the FIRST overage of
      // the run records (subsequent charges find the token interrupted),
      // keeping the hot path one extra load in the already-failing case.
      if (!token_->Interrupted()) RecordTrip(now);
      token_->Fail(ExecStatus::kResourceExhausted);
    }
  }

  /// Switches budget overages from token trips to the UnderPressure()
  /// signal. Called once before the run's parallel phase (not thread-safe
  /// against concurrent charges; it doesn't need to be).
  void EnableSpillMode() { spill_mode_ = true; }
  bool spill_mode() const { return spill_mode_; }

  /// True while this ledger (or the process governor) is over a nonzero
  /// budget in spill mode. Computed live from current usage: spilling
  /// memory back under the budget clears the pressure with no reset.
  bool UnderPressure() const {
    if (!spill_mode_) return false;
    if (budget_ != 0 &&
        in_use_.load(std::memory_order_relaxed) > budget_)
      return true;
    return governor_->OverBudget();
  }

  void Uncharge(size_t bytes) {
    in_use_.fetch_sub(bytes, std::memory_order_relaxed);
    governor_->Uncharge(bytes);
  }

  size_t in_use() const { return in_use_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  size_t budget() const { return budget_; }
  const CancelToken* token() const { return token_; }

  /// Attaches the execution's span sink so the run's first budget trip
  /// becomes a "governor.trip" instant event (runtime/trace.h). Set by
  /// vcq::PreparedQuery before the parallel phase; nullptr = untraced.
  void SetTrace(class QueryTrace* trace) { trace_ = trace; }

 private:
  /// Out-of-line (runtime/trace.cc) so this hot header needs no trace or
  /// metrics includes: records the trip event and bumps
  /// vcq.governor.trips_total.
  void RecordTrip(size_t in_use_bytes);

  const size_t budget_;
  const CancelToken* token_;
  ResourceGovernor* governor_;
  class QueryTrace* trace_ = nullptr;
  bool spill_mode_ = false;
  std::atomic<size_t> in_use_{0};
  std::atomic<size_t> peak_{0};
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_RESOURCE_GOVERNOR_H_
