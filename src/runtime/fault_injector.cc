#include "runtime/fault_injector.h"

#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

namespace vcq::runtime {

void FaultInjector::Arm(std::string_view point, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& state = points_[std::string(point)];
  state.armed = true;
  state.spec = spec;
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, state] : points_) state.armed = false;
}

void FaultInjector::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, state] : points_) state.hits = 0;
  fired_ = 0;
}

uint64_t FaultInjector::HitCount(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = points_.find(std::string(point));
  return it != points_.end() ? it->second.hits : 0;
}

uint64_t FaultInjector::FiredCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

void FaultInjector::Hit(const char* point, const CancelToken* token) {
  FaultSpec fire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PointState& state = points_[point];
    const uint64_t ordinal = ++state.hits;
    if (!state.armed) return;
    const bool matches = state.spec.repeat
                             ? ordinal >= state.spec.fire_on_hit
                             : ordinal == state.spec.fire_on_hit;
    if (!matches) return;
    ++fired_;
    fire = state.spec;
  }
  // Act outside the lock: a throw must not leave mu_ held, and a delay
  // must not serialize unrelated points.
  switch (fire.action) {
    case FaultAction::kThrowBadAlloc:
      throw std::bad_alloc();
    case FaultAction::kCancel:
      if (token != nullptr) token->Cancel();
      break;
    case FaultAction::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(fire.delay_us));
      break;
  }
}

uint64_t FaultInjector::NextRand() {
  // SplitMix64: tiny, seedable, good enough for choosing hit ordinals.
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t FaultInjector::RandOrdinal(uint64_t bound) {
  if (bound <= 1) return 1;
  return 1 + NextRand() % bound;
}

const std::vector<const char*>& FaultInjector::KnownPoints() {
  // Keep in sync with the FaultHit call sites; the sweep test dry-runs the
  // workload and asserts every listed point is actually crossed, so a
  // renamed or dropped site fails loudly here instead of silently
  // shrinking coverage.
  static const std::vector<const char*> kPoints = {
      "scan.morsel",             // per-morsel poll, all engines' scans
      "join_build.size",         // sizing barrier: directory + arena alloc
      "join_build.insert",       // per-worker insert phase entry
      "join_build.finish",       // before the final build barrier
      "typer.join.materialize",  // Typer build-side row materialization
      "typer.group.alloc",       // Typer group row-block alloc
      "typer.group.merge",       // Typer partition-parallel group merge
      "tw.join.materialize",     // Tectorwise build-side row scatter
      "tw.group.alloc",          // Tectorwise group row-block alloc
      "tw.group.merge",          // Tectorwise partition-parallel group merge
      "spill.open",              // spill-file create (SpillManager::Create)
      "spill.write",             // spill-segment append (SpillFile::Append)
      "spill.read",              // spill-segment readback (SpillFile::Read)
      "spill.unlink",            // spill-file cleanup (absorbed, not fatal)
  };
  return kPoints;
}

FaultInjector* FaultInjector::ProcessWide() {
  static FaultInjector* instance = []() -> FaultInjector* {
    const char* spec_env = std::getenv("VCQ_FAULT");
    if (spec_env == nullptr || spec_env[0] == '\0') return nullptr;
    uint64_t seed = 1;
    if (const char* seed_env = std::getenv("VCQ_FAULT_SEED"))
      seed = std::strtoull(seed_env, nullptr, 10);
    auto* fi = new FaultInjector(seed);
    // point[:hit[:action]]
    std::string spec(spec_env);
    std::string point = spec;
    FaultSpec fault;
    const size_t colon = spec.find(':');
    if (colon != std::string::npos) {
      point = spec.substr(0, colon);
      std::string rest = spec.substr(colon + 1);
      const size_t colon2 = rest.find(':');
      std::string hit = colon2 == std::string::npos ? rest
                                                    : rest.substr(0, colon2);
      if (!hit.empty()) fault.fire_on_hit = std::strtoull(hit.c_str(), nullptr, 10);
      if (colon2 != std::string::npos) {
        const std::string action = rest.substr(colon2 + 1);
        if (action == "cancel") fault.action = FaultAction::kCancel;
        else if (action == "delay") fault.action = FaultAction::kDelay;
        else fault.action = FaultAction::kThrowBadAlloc;
      }
    }
    if (fault.fire_on_hit == 0) fault.fire_on_hit = 1;
    fi->Arm(point, fault);
    return fi;
  }();
  return instance;
}

}  // namespace vcq::runtime
