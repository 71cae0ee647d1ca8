#include "runtime/tuner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/env_util.h"
#include "runtime/metrics.h"

namespace vcq::runtime {
namespace {

// SplitMix64 — same generator the retry jitter and fault injector use.
uint64_t Mix(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// UCB1 exploration constant. Costs are normalized by the knob's best
// observed mean, so the bonus is in "fractions of the best arm's cost";
// 0.25 keeps post-exploration revisits rare unless arms are within a few
// percent of each other.
constexpr double kUcbC = 0.25;

const char* KindName(KnobKind kind) {
  switch (kind) {
    case KnobKind::kVectorSize: return "vector_size";
    case KnobKind::kCompaction: return "compaction";
    case KnobKind::kRof: return "rof";
    case KnobKind::kRofBlock: return "rof_block";
  }
  return "?";
}

std::string ArmLabel(KnobKind kind, int64_t value) {
  switch (kind) {
    case KnobKind::kCompaction:
      if (value == kCompactionNever) return "never";
      if (value == kCompactionAlways) return "always";
      return "adaptive(1/" + std::to_string(value) + ")";
    case KnobKind::kRof:
      return value == 0 ? "off" : "on";
    default:
      return std::to_string(value);
  }
}

}  // namespace

Tuner::Tuner(uint64_t seed, size_t explore_reps)
    : seed_(seed), explore_reps_(explore_reps == 0 ? 1 : explore_reps) {}

uint64_t Tuner::ResolveSeed(uint64_t requested) {
  if (requested != 0) return requested;
  const int64_t env = vcq::EnvInt("VCQ_TUNER_SEED", 0);
  if (env != 0) return static_cast<uint64_t>(env);
  return 0x5eedf00dcafeull;  // fixed default: deterministic out of the box
}

size_t Tuner::RegisterKnob(std::string name, uint32_t node, KnobKind kind,
                           std::vector<int64_t> arms, size_t default_arm) {
  std::lock_guard<std::mutex> lock(mu_);
  Knob knob;
  knob.name = std::move(name);
  knob.node = node;
  knob.kind = kind;
  knob.arms = std::move(arms);
  if (knob.arms.empty()) knob.arms.push_back(0);
  knob.default_arm = default_arm < knob.arms.size() ? default_arm : 0;
  knob.visits.assign(knob.arms.size(), 0);
  knob.mean_cost.assign(knob.arms.size(), 0.0);
  knob.min_cost.assign(knob.arms.size(), 0.0);
  // Seed-shuffled exploration order (Fisher–Yates), derived from the seed
  // and the knob's position so every knob gets a distinct but reproducible
  // permutation.
  knob.explore_order.resize(knob.arms.size());
  for (size_t i = 0; i < knob.explore_order.size(); ++i) {
    knob.explore_order[i] = i;
  }
  uint64_t rng = seed_ ^ (0x9e3779b97f4a7c15ull * (knobs_.size() + 1));
  for (size_t i = knob.explore_order.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(Mix(rng) % i);
    std::swap(knob.explore_order[i - 1], knob.explore_order[j]);
  }
  knobs_.push_back(std::move(knob));
  return knobs_.size() - 1;
}

size_t Tuner::ExploreTotalLocked() const {
  size_t total = 0;
  for (const Knob& knob : knobs_) total += knob.arms.size() * explore_reps_;
  return total;
}

size_t Tuner::BestArmLocked(const Knob& knob) const {
  // Lowest observed cost (the per-arm minimum — robust to load spikes);
  // unvisited arms lose to any visited arm, ties go to the default arm so
  // an untrained tuner behaves as today's statics.
  size_t best = knob.default_arm;
  bool have = knob.visits[best] > 0;
  double best_cost = have ? knob.min_cost[best] : 0.0;
  for (size_t a = 0; a < knob.arms.size(); ++a) {
    if (knob.visits[a] == 0) continue;
    if (!have || knob.min_cost[a] < best_cost) {
      have = true;
      best = a;
      best_cost = knob.min_cost[a];
    }
  }
  return best;
}

size_t Tuner::UcbArmLocked(const Knob& knob) const {
  uint64_t total = 0;
  double best_min = 0.0;
  bool have = false;
  for (size_t a = 0; a < knob.arms.size(); ++a) {
    total += knob.visits[a];
    if (knob.visits[a] > 0 && (!have || knob.min_cost[a] < best_min)) {
      have = true;
      best_min = knob.min_cost[a];
    }
  }
  // An arm with no observations (its exploration runs all failed) is tried
  // first, as in classic UCB1.
  for (size_t a = 0; a < knob.arms.size(); ++a) {
    if (knob.visits[a] == 0) return a;
  }
  if (best_min <= 0.0) return knob.default_arm;
  size_t best = knob.default_arm;
  double best_score = 0.0;
  bool first = true;
  for (size_t a = 0; a < knob.arms.size(); ++a) {
    double cost = knob.min_cost[a] / best_min;  // 1.0 = best arm so far
    double bonus = kUcbC * std::sqrt(2.0 * std::log(static_cast<double>(
                                               total)) /
                                     static_cast<double>(knob.visits[a]));
    double score = cost - bonus;
    if (first || score < best_score) {
      first = false;
      best = a;
      best_score = score;
    }
  }
  return best;
}

void Tuner::Resolve(TuningMode mode, KnobChoices* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool learning = mode == TuningMode::kLearn && !frozen_;
  if (learning) {
    // Fleet-wide bandit activity (runtime/metrics.h): one draw per
    // learning execution, across every tuner instance.
    static metrics::Counter& draws =
        metrics::Registry::Global().GetCounter("vcq.tuner.draws_total");
    draws.Add();
  }
  const size_t n = learning ? resolves_++ : 0;
  const size_t explore_total = ExploreTotalLocked();
  for (size_t k = 0; k < knobs_.size(); ++k) {
    const Knob& knob = knobs_[k];
    size_t arm;
    if (!learning) {
      arm = BestArmLocked(knob);
    } else if (n < explore_total) {
      // Exploration: find which knob's window execution n falls into; that
      // knob cycles its shuffled arms, everyone else holds the default.
      size_t offset = n;
      size_t active = knobs_.size();
      for (size_t j = 0; j < knobs_.size(); ++j) {
        size_t window = knobs_[j].arms.size() * explore_reps_;
        if (offset < window) {
          active = j;
          break;
        }
        offset -= window;
      }
      arm = (k == active)
                ? knob.explore_order[offset % knob.arms.size()]
                : knob.default_arm;
    } else {
      arm = UcbArmLocked(knob);
    }
    out->Add(knob.node, knob.kind, knob.arms[arm]);
  }
}

void Tuner::Observe(const KnobChoices& choices, const NodeTelemetry& telemetry,
                    uint64_t query_ns, uint64_t query_tuples) {
  if (query_tuples == 0) query_tuples = 1;
  const double query_cost =
      static_cast<double>(query_ns) / static_cast<double>(query_tuples);
  std::lock_guard<std::mutex> lock(mu_);
  if (frozen_) return;
  for (Knob& knob : knobs_) {
    int64_t value = choices.Get(knob.node, knob.kind);
    if (value == KnobChoices::kUnset) continue;
    auto it = std::find(knob.arms.begin(), knob.arms.end(), value);
    if (it == knob.arms.end()) continue;
    size_t arm = static_cast<size_t>(it - knob.arms.begin());
    double cost = query_cost;
    if (knob.node != kQueryKnob && telemetry.HasSpan(knob.node)) {
      cost = telemetry.NsPerTuple(knob.node);
    }
    knob.visits[arm]++;
    knob.mean_cost[arm] +=
        (cost - knob.mean_cost[arm]) / static_cast<double>(knob.visits[arm]);
    knob.min_cost[arm] = knob.visits[arm] == 1
                             ? cost
                             : std::min(knob.min_cost[arm], cost);
  }
}

void Tuner::Freeze() {
  std::lock_guard<std::mutex> lock(mu_);
  frozen_ = true;
}

bool Tuner::frozen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frozen_;
}

bool Tuner::Converged() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Knob& knob : knobs_) {
    for (uint64_t v : knob.visits) {
      if (v < explore_reps_) return false;
    }
  }
  return true;
}

std::string Tuner::Describe() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "tuner: seed=" << seed_ << " knobs=" << knobs_.size()
      << " executions=" << resolves_
      << " explore_total=" << ExploreTotalLocked()
      << (frozen_ ? " [frozen]" : "") << "\n";
  for (const Knob& knob : knobs_) {
    out << "  " << knob.name << " (" << KindName(knob.kind);
    if (knob.node != kQueryKnob) out << " @node " << knob.node;
    out << "):";
    size_t best = BestArmLocked(knob);
    for (size_t a = 0; a < knob.arms.size(); ++a) {
      out << " " << ArmLabel(knob.kind, knob.arms[a]) << "[n="
          << knob.visits[a];
      if (knob.visits[a] > 0) {
        out << " " << std::llround(knob.min_cost[a] * 100) / 100.0
            << "ns/t";
      }
      out << "]";
      if (a == best) out << "*";
    }
    out << "\n";
  }
  return out.str();
}

size_t Tuner::knob_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return knobs_.size();
}

const std::string& Tuner::knob_name(size_t knob) const {
  std::lock_guard<std::mutex> lock(mu_);
  return knobs_[knob].name;
}

std::vector<Tuner::ArmStats> Tuner::ArmsOf(size_t knob) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Knob& k = knobs_[knob];
  std::vector<ArmStats> out(k.arms.size());
  for (size_t a = 0; a < k.arms.size(); ++a) {
    out[a] = ArmStats{k.arms[a], k.visits[a], k.mean_cost[a], k.min_cost[a]};
  }
  return out;
}

size_t Tuner::BestArm(size_t knob) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BestArmLocked(knobs_[knob]);
}

}  // namespace vcq::runtime
