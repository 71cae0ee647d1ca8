#ifndef VCQ_RUNTIME_TUNER_H_
#define VCQ_RUNTIME_TUNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/options.h"

// Self-tuning execution (paper §9.1: the optimizer, not the engineer,
// should pick execution strategies). Every data- and machine-dependent
// execution knob — compaction policy per Select/group point, ROF staged
// probes and their block size, vector size — becomes
// a TunableKnob with a discrete arm set, and a per-PreparedQuery Tuner
// learns the best arm from measured execution cost across repeated
// executions (the whole point of the Session API).
//
// The learning loop per execution:
//   1. Resolve(): the tuner picks one arm per knob and writes the choices
//      into a KnobChoices snapshot the engines read (per-plan-node for
//      Tectorwise via ExecContext, per-query for Typer via QueryOptions).
//   2. The engines run; NodeTelemetry records per-node wall spans (join
//      build inserts today — the spans JoinBuildTelemetry already
//      measures, kept per site instead of globally) and the session
//      records the query's end-to-end span.
//   3. Observe(): every knob's chosen arm is charged the measured
//      ns/tuple — its own node's span when one was recorded, the query
//      span otherwise (a factored bandit: knobs are explored one at a
//      time, so the shared reward still attributes cleanly).
//
// Arm selection is UCB1 in minimization form after a bounded, seed-
// deterministic exploration phase: knobs take turns (registration order),
// each cycling its arms in a seed-shuffled order for explore_reps rounds
// while every other knob holds its default arm. After exploration each
// knob independently picks argmin over its arms' best observed cost minus
// the UCB1 confidence bonus, so a drifting workload can still flip an
// arm. The whole arm sequence is a pure function of the seed
// (VCQ_TUNER_SEED) and the number of Resolve() calls — costs only matter
// after exploration — which is what makes the fault-injection and
// byte-identity harnesses replayable.

namespace vcq::runtime {

/// Knob kinds; the engines use (node, kind) pairs to look up choices.
enum class KnobKind : uint8_t {
  kVectorSize,  ///< Tectorwise vector size (per plan).
  kCompaction,  ///< Compaction arm at one Select/group point (encoding
                ///< below) or, for Typer, unused.
  kRof,         ///< staged (ROF) probes on/off (0/1).
  kRofBlock,    ///< staged-probe block size in tuples.
};

/// Node id used for per-query (not per-plan-node) knobs: Typer's ROF
/// settings and the per-plan vector size.
inline constexpr uint32_t kQueryKnob = UINT32_MAX;

/// Compaction arm encoding (KnobKind::kCompaction): 0 = kNever,
/// 1 = kAlways, k >= 2 = kAdaptive with threshold 1/k. Keeps the arm set a
/// flat int list like every other knob.
inline constexpr int64_t kCompactionNever = 0;
inline constexpr int64_t kCompactionAlways = 1;

/// One resolved knob value for one execution.
struct KnobChoice {
  uint32_t node;
  KnobKind kind;
  int64_t value;
};

/// The per-execution snapshot of resolved knob values, written by
/// Tuner::Resolve and read by the engines (QueryOptions::knobs ->
/// tectorwise::ExecContext::knobs). A handful of entries per query, so
/// lookup is a linear scan.
class KnobChoices {
 public:
  /// Returned by Get when the tuner resolved no choice for (node, kind).
  static constexpr int64_t kUnset = INT64_MIN;

  void Add(uint32_t node, KnobKind kind, int64_t value) {
    choices_.push_back(KnobChoice{node, kind, value});
  }
  int64_t Get(uint32_t node, KnobKind kind) const {
    for (const KnobChoice& c : choices_) {
      if (c.node == node && c.kind == kind) return c.value;
    }
    return kUnset;
  }
  const std::vector<KnobChoice>& all() const { return choices_; }
  void clear() { choices_.clear(); }

 private:
  std::vector<KnobChoice> choices_;
};

/// Per-execution, per-node wall spans — the reward signal. Extends the
/// process-global CompactionTelemetry/JoinBuildTelemetry counters into a
/// per-run object: sites are plan-node indices (Tectorwise) or build
/// ordinals (Typer), each accumulating {ns, tuples} so a knob attached to
/// that node can be charged its own ns/tuple instead of the whole query's.
/// Fixed-size atomic slots: recording from parallel workers is lock-free
/// and allocation-free.
class NodeTelemetry {
 public:
  static constexpr size_t kMaxSites = 64;

  void RecordSpan(uint32_t site, uint64_t ns, uint64_t tuples) {
    if (site >= kMaxSites) return;  // out-of-range sites fall back to the
                                    // query-level reward
    sites_[site].ns.fetch_add(ns, std::memory_order_relaxed);
    sites_[site].tuples.fetch_add(tuples, std::memory_order_relaxed);
  }

  bool HasSpan(uint32_t site) const {
    return site < kMaxSites &&
           sites_[site].tuples.load(std::memory_order_relaxed) > 0;
  }

  /// Accumulated wall ns at `site` (0 when nothing was recorded) — read
  /// by EXPLAIN ANALYZE's build/probe split as well as the tuner.
  uint64_t SpanNs(uint32_t site) const {
    return site < kMaxSites ? sites_[site].ns.load(std::memory_order_relaxed)
                            : 0;
  }
  /// Accumulated tuples at `site`.
  uint64_t SpanTuples(uint32_t site) const {
    return site < kMaxSites
               ? sites_[site].tuples.load(std::memory_order_relaxed)
               : 0;
  }

  /// ns per tuple at `site`; 0 when nothing was recorded there.
  double NsPerTuple(uint32_t site) const {
    if (!HasSpan(site)) return 0;
    return static_cast<double>(
               sites_[site].ns.load(std::memory_order_relaxed)) /
           static_cast<double>(
               sites_[site].tuples.load(std::memory_order_relaxed));
  }

 private:
  struct Site {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> tuples{0};
  };
  Site sites_[kMaxSites];
};

/// The per-PreparedQuery multi-armed bandit over execution knobs. All
/// methods are thread-safe (concurrent Execute()s of one prepared query
/// share the tuner). Knobs are registered once at Prepare; Resolve/Observe
/// run per execution.
class Tuner {
 public:
  /// `seed` drives every random decision (exploration arm order);
  /// `explore_reps` is how many times each arm of each knob is visited
  /// during the bounded exploration phase before UCB takes over.
  explicit Tuner(uint64_t seed, size_t explore_reps = 2);

  /// Seed resolution: a nonzero `requested` (QueryOptions::tuner_seed)
  /// wins; otherwise VCQ_TUNER_SEED from the environment; otherwise a
  /// fixed default — the tuner is always seeded, never wall-clock random.
  static uint64_t ResolveSeed(uint64_t requested);

  /// Registers one tunable decision. `arms` are the candidate values (at
  /// least one), `default_arm` indexes the arm matching today's static
  /// configuration — it is what kOff/kFrozen-without-history resolve to
  /// and what the knob holds while other knobs explore. Returns the knob
  /// index.
  size_t RegisterKnob(std::string name, uint32_t node, KnobKind kind,
                      std::vector<int64_t> arms, size_t default_arm);

  /// Picks one arm per knob for the next execution and appends the
  /// choices to `out`. kLearn advances the exploration/UCB schedule;
  /// kFrozen (or a Freeze()d tuner) resolves every knob to its current
  /// best arm without advancing anything. (kOff executions skip the tuner
  /// entirely — the session never calls Resolve.)
  void Resolve(TuningMode mode, KnobChoices* out);

  /// Charges each knob's chosen arm with the execution's measured cost:
  /// the knob's own node span from `telemetry` when one was recorded, the
  /// query-level ns/tuple otherwise. Failed executions should not be
  /// observed (their spans are partial).
  void Observe(const KnobChoices& choices, const NodeTelemetry& telemetry,
               uint64_t query_ns, uint64_t query_tuples);

  /// Pins every knob to its current best arm: subsequent Resolve()s behave
  /// as kFrozen regardless of mode.
  void Freeze();
  bool frozen() const;

  /// True once the bounded exploration phase is complete (every arm of
  /// every knob visited explore_reps times).
  bool Converged() const;

  /// EXPLAIN surface: one block per knob — name, arms with visit counts
  /// and mean ns/tuple, the arm the next frozen execution would use, and
  /// the schedule position.
  std::string Describe() const;

  // --- introspection (tests, benches) --------------------------------------

  struct ArmStats {
    int64_t value = 0;
    uint64_t visits = 0;
    double mean_cost = 0;  ///< ns/tuple, running mean
    double min_cost = 0;   ///< ns/tuple, best observed (0 if unvisited)
  };

  size_t knob_count() const;
  const std::string& knob_name(size_t knob) const;
  std::vector<ArmStats> ArmsOf(size_t knob) const;
  /// The arm index a frozen execution would choose right now.
  size_t BestArm(size_t knob) const;
  uint64_t seed() const { return seed_; }

 private:
  struct Knob {
    std::string name;
    uint32_t node;
    KnobKind kind;
    std::vector<int64_t> arms;
    std::vector<uint64_t> visits;     // per arm
    std::vector<double> mean_cost;    // per arm, ns/tuple running mean
    // Per arm, lowest observed ns/tuple. Arm selection compares minima,
    // not means: execution cost per arm is deterministic up to additive
    // machine noise, so the minimum converges on the true cost while a
    // mean stays contaminated by every load spike it ever absorbed.
    std::vector<double> min_cost;
    std::vector<size_t> explore_order;  // seed-shuffled arm permutation
    size_t default_arm;
  };

  size_t BestArmLocked(const Knob& knob) const;
  size_t UcbArmLocked(const Knob& knob) const;
  /// Total executions the exploration phase spans.
  size_t ExploreTotalLocked() const;

  const uint64_t seed_;
  const size_t explore_reps_;
  mutable std::mutex mu_;
  std::vector<Knob> knobs_;
  size_t resolves_ = 0;  // kLearn executions scheduled so far
  bool frozen_ = false;
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_TUNER_H_
