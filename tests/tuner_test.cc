#include "runtime/tuner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/vcq.h"
#include "datagen/tpch.h"
#include "runtime/options.h"

// Self-tuning acceptance (PR 7): the bandit's arm sequence is a pure
// function of the seed during exploration, it converges to the known-best
// arm on a rigged reward, every arm it can draw produces byte-identical
// query results on both engines, and kOff/kFrozen-without-history behave
// exactly as today's static configuration.

namespace vcq {
namespace {

using runtime::KnobChoices;
using runtime::KnobKind;
using runtime::kQueryKnob;
using runtime::NodeTelemetry;
using runtime::QueryOptions;
using runtime::QueryResult;
using runtime::Tuner;
using runtime::TuningMode;

const runtime::Database& TpchDb() {
  static const runtime::Database* db =
      new runtime::Database(datagen::GenerateTpch(0.01));
  return *db;
}

// A small knob set shaped like a real query's: one query-level knob and
// two per-node knobs with different arm counts.
void RegisterTestKnobs(Tuner& tuner) {
  tuner.RegisterKnob("vector_size", kQueryKnob, KnobKind::kVectorSize,
                     {256, 512, 1024, 2048}, 2);
  tuner.RegisterKnob("select.compaction", 1, KnobKind::kCompaction,
                     {0, 1, 16, 64, 256}, 2);
  tuner.RegisterKnob("join.rof", 3, KnobKind::kRof, {0, 1}, 0);
}

// The full choice vector of one Resolve, flattened for comparison.
std::vector<int64_t> Draw(Tuner& tuner, TuningMode mode) {
  KnobChoices choices;
  tuner.Resolve(mode, &choices);
  std::vector<int64_t> values;
  for (const auto& c : choices.all()) values.push_back(c.value);
  return values;
}

TEST(TunerTest, SameSeedSameArmSequence) {
  Tuner a(42), b(42);
  RegisterTestKnobs(a);
  RegisterTestKnobs(b);
  // Exploration choices are cost-independent, so even with only one tuner
  // observing costs the sequences must stay identical through the whole
  // exploration phase.
  NodeTelemetry telemetry;
  for (int i = 0; i < 22; ++i) {  // explore_total = 2*(4+5+2) = 22
    KnobChoices ca, cb;
    a.Resolve(TuningMode::kLearn, &ca);
    b.Resolve(TuningMode::kLearn, &cb);
    ASSERT_EQ(ca.all().size(), cb.all().size());
    for (size_t k = 0; k < ca.all().size(); ++k) {
      EXPECT_EQ(ca.all()[k].value, cb.all()[k].value) << "exec " << i;
    }
    a.Observe(ca, telemetry, 1000 + 37 * i, 10);  // costs must not matter
  }
  EXPECT_TRUE(a.Converged());
  // Convergence tracks observed rewards, not draws: b drew the same arms
  // but never observed a cost, so it is still exploring.
  EXPECT_FALSE(b.Converged());
}

TEST(TunerTest, DifferentSeedDifferentExplorationOrder) {
  Tuner a(42), b(43);
  RegisterTestKnobs(a);
  RegisterTestKnobs(b);
  bool diverged = false;
  for (int i = 0; i < 22 && !diverged; ++i) {
    if (Draw(a, TuningMode::kLearn) != Draw(b, TuningMode::kLearn)) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(TunerTest, SeedResolutionPrecedence) {
  // Explicit request wins over everything.
  ::setenv("VCQ_TUNER_SEED", "99", 1);
  EXPECT_EQ(Tuner::ResolveSeed(7), 7u);
  // Zero request falls back to the environment.
  EXPECT_EQ(Tuner::ResolveSeed(0), 99u);
  // No request, no env: the fixed default — still deterministic.
  ::unsetenv("VCQ_TUNER_SEED");
  EXPECT_EQ(Tuner::ResolveSeed(0), 0x5eedf00dcafeull);
}

TEST(TunerTest, ConvergesToRiggedBestArm) {
  Tuner tuner(7);
  const size_t knob = tuner.RegisterKnob(
      "rigged", kQueryKnob, KnobKind::kRofBlock, {128, 256, 512, 1024}, 0);
  NodeTelemetry telemetry;
  // Rig the reward: arm 512 costs 10ns/t, everything else 100ns/t. After
  // exploration the UCB bonus (0.25 * sqrt(...)) is far smaller than the
  // 10x gap, so every post-exploration draw must pick 512.
  for (int i = 0; i < 40; ++i) {
    KnobChoices choices;
    tuner.Resolve(TuningMode::kLearn, &choices);
    const int64_t value = choices.Get(kQueryKnob, KnobKind::kRofBlock);
    ASSERT_NE(value, KnobChoices::kUnset);
    const uint64_t ns = value == 512 ? 10 * 100 : 100 * 100;
    tuner.Observe(choices, telemetry, ns, 100);
    if (i >= 8) {  // explore_total = 4 arms * 2 reps
      EXPECT_EQ(value, 512) << "post-exploration draw " << i;
    }
  }
  EXPECT_TRUE(tuner.Converged());
  EXPECT_EQ(tuner.ArmsOf(knob)[tuner.BestArm(knob)].value, 512);
  // Frozen resolution sticks to the learned best without advancing.
  tuner.Freeze();
  for (int i = 0; i < 3; ++i) {
    KnobChoices choices;
    tuner.Resolve(TuningMode::kLearn, &choices);
    EXPECT_EQ(choices.Get(kQueryKnob, KnobKind::kRofBlock), 512);
  }
}

TEST(TunerTest, PerNodeSpanBeatsQueryCost) {
  // A knob at a node with recorded telemetry is charged its own span, not
  // the query's: rig node 5's span so arm 1 wins there even though the
  // query-level cost would say otherwise.
  Tuner tuner(11);
  const size_t knob =
      tuner.RegisterKnob("node5.rof", 5, KnobKind::kRof, {0, 1}, 0);
  for (int i = 0; i < 8; ++i) {
    KnobChoices choices;
    tuner.Resolve(TuningMode::kLearn, &choices);
    const int64_t value = choices.Get(5, KnobKind::kRof);
    NodeTelemetry telemetry;
    telemetry.RecordSpan(5, value == 1 ? 100 : 1000, 10);
    // Query-level cost is rigged the other way and must be ignored.
    tuner.Observe(choices, telemetry, value == 1 ? 100000 : 10, 1);
  }
  EXPECT_EQ(tuner.ArmsOf(knob)[tuner.BestArm(knob)].value, 1);
}

TEST(TunerTest, UntrainedBestArmIsDefault) {
  Tuner tuner(3);
  RegisterTestKnobs(tuner);
  // No Observe yet: kFrozen-style resolution must reproduce the statics.
  KnobChoices choices;
  tuner.Resolve(TuningMode::kFrozen, &choices);
  EXPECT_EQ(choices.Get(kQueryKnob, KnobKind::kVectorSize), 1024);
  EXPECT_EQ(choices.Get(1, KnobKind::kCompaction), 16);
  EXPECT_EQ(choices.Get(3, KnobKind::kRof), 0);
  EXPECT_FALSE(tuner.Converged());
}

// --- session-level behavior --------------------------------------------------

TEST(TunerSessionTest, OffModeIsUntunedAndExplainSaysSo) {
  Session session(TpchDb());
  QueryOptions opt;
  opt.threads = 1;
  PreparedQuery q = session.Prepare(Engine::kTectorwise, Query::kQ3, opt);
  EXPECT_EQ(q.ExplainTuning(), "tuning: off\n");
  EXPECT_TRUE(q.TuningConverged());
  EXPECT_TRUE(q.Execute().ok());
}

TEST(TunerSessionTest, FrozenWithoutHistoryMatchesStatics) {
  Session session(TpchDb());
  for (Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
    QueryOptions off;
    off.threads = 1;
    const QueryResult expected =
        session.Prepare(engine, Query::kQ3, off).Execute();
    ASSERT_TRUE(expected.ok());

    QueryOptions frozen = off;
    frozen.tuning = TuningMode::kFrozen;
    PreparedQuery q = session.Prepare(engine, Query::kQ3, frozen);
    EXPECT_EQ(q.Execute(), expected) << EngineName(engine);
    // An untrained frozen tuner reports default arms, not garbage.
    EXPECT_NE(q.ExplainTuning().find("tuner: seed="), std::string::npos);
  }
}

TEST(TunerSessionTest, ByteIdenticalAcrossArmsEnginesThreads) {
  // The core safety claim: arms change performance, never results. Drive a
  // learning tuner through its whole exploration phase — which by
  // construction visits every arm of every knob — and require every
  // execution byte-identical to the untuned reference.
  Session session(TpchDb());
  for (Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      QueryOptions off;
      off.threads = threads;
      const QueryResult expected =
          session.Prepare(engine, Query::kQ3, off).Execute();
      ASSERT_TRUE(expected.ok());

      QueryOptions learn = off;
      learn.tuning = TuningMode::kLearn;
      learn.tuner_seed = 0xabcdef;
      PreparedQuery q = session.Prepare(engine, Query::kQ3, learn);
      int execs = 0;
      while (!q.TuningConverged() && execs < 128) {
        EXPECT_EQ(q.Execute(), expected)
            << EngineName(engine) << " threads=" << threads
            << " exec=" << execs << "\n"
            << q.ExplainTuning();
        ++execs;
      }
      EXPECT_TRUE(q.TuningConverged())
          << "exploration did not finish in " << execs << " executions\n"
          << q.ExplainTuning();
      // And a few post-convergence (UCB-chosen) executions.
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(q.Execute(), expected) << EngineName(engine);
      }
    }
  }
}

TEST(TunerSessionTest, LearnedQueryFreezesAndExplains) {
  Session session(TpchDb());
  QueryOptions learn;
  learn.threads = 1;
  learn.tuning = TuningMode::kLearn;
  learn.tuner_seed = 5;
  PreparedQuery q = session.Prepare(Engine::kTectorwise, Query::kQ3, learn);
  int execs = 0;
  while (!q.TuningConverged() && execs < 128) {
    ASSERT_TRUE(q.Execute().ok());
    ++execs;
  }
  ASSERT_TRUE(q.TuningConverged());

  const std::string explain = q.ExplainTuning();
  EXPECT_NE(explain.find("tuner: seed=5"), std::string::npos) << explain;
  EXPECT_NE(explain.find("vector_size"), std::string::npos) << explain;
  EXPECT_NE(explain.find("compaction"), std::string::npos) << explain;

  q.FreezeTuning();
  EXPECT_NE(q.ExplainTuning().find("[frozen]"), std::string::npos);
  // Frozen executions still work and stop advancing the schedule.
  const std::string before = q.ExplainTuning();
  EXPECT_TRUE(q.Execute().ok());
  EXPECT_EQ(q.ExplainTuning(), before);
}

TEST(TunerSessionTest, MeasuredPeakReplacesEstimateAfterFirstRun) {
  Session session(TpchDb());
  QueryOptions opt;
  opt.threads = 1;
  PreparedQuery q = session.Prepare(Engine::kTectorwise, Query::kQ3, opt);
  EXPECT_EQ(q.measured_peak_bytes(), 0u);
  ASSERT_TRUE(q.Execute().ok());
  const size_t peak = q.measured_peak_bytes();
  EXPECT_GT(peak, 0u);
  // Stable across re-executions of the same bindings.
  ASSERT_TRUE(q.Execute().ok());
  EXPECT_EQ(q.measured_peak_bytes(), peak);
}

}  // namespace
}  // namespace vcq
