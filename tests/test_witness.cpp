// Adversary synthesis: the model checker's fair-EC witnesses, played back
// as live schedulers, must actually trap the algorithms the theorems say
// they trap — and must not exist where progress is certified.
#include <gtest/gtest.h>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/witness.hpp"
#include "gdp/sim/engine.hpp"

namespace gdp::mdp {
namespace {

TEST(Witness, SynthesizedAdversaryTrapsLr1OnParallel3) {
  const auto t = graph::parallel_arcs(3);
  const auto lr1 = algos::make_algorithm("lr1");
  StateIndex index;
  const Model model = explore_indexed(*lr1, t, index, {.max_states = 1'000'000});
  const auto ec = check_fair_progress(model).witness;
  ASSERT_TRUE(ec.has_value());

  int trapped = 0;
  for (int trial = 0; trial < 20; ++trial) {
    WitnessScheduler sched(model, index, *ec);
    rng::Rng rng(static_cast<std::uint64_t>(500 + trial));
    sim::EngineConfig cfg;
    cfg.max_steps = 30'000;
    const auto r = sim::run(*lr1, t, sched, rng, cfg);
    if (sched.entered_component()) {
      // From the moment the run enters the EC, nobody ever eats; meals can
      // only have happened before entry.
      EXPECT_GT(sched.steps_inside(), 10'000u);
      ++trapped;
    }
  }
  // The attractor reaches the EC with positive probability; across 20
  // trials, entering at least a few times is overwhelmingly likely.
  EXPECT_GT(trapped, 2);
}

TEST(Witness, TrappedRunsStopEatingPermanently) {
  const auto t = graph::parallel_arcs(3);
  const auto lr1 = algos::make_algorithm("lr1");
  StateIndex index;
  const Model model = explore_indexed(*lr1, t, index, {.max_states = 1'000'000});
  const auto ec = check_fair_progress(model).witness;
  ASSERT_TRUE(ec.has_value());

  for (int trial = 0; trial < 10; ++trial) {
    WitnessScheduler sched(model, index, *ec);
    rng::Rng rng(static_cast<std::uint64_t>(900 + trial));
    sim::EngineConfig cfg;
    cfg.max_steps = 20'000;
    cfg.record_trace = true;
    const auto r = sim::run(*lr1, t, sched, rng, cfg);
    if (!sched.entered_component()) continue;
    // Locate the last meal: it must precede the long in-component suffix.
    std::uint64_t last_meal = 0;
    for (const auto& e : r.trace) {
      if (e.event.kind == sim::EventKind::kTookSecond) last_meal = e.step;
    }
    EXPECT_LT(last_meal + sched.steps_inside(), r.steps + 1);
  }
}

TEST(Witness, FairRotationInsideTheComponent) {
  const auto t = graph::parallel_arcs(3);
  const auto lr1 = algos::make_algorithm("lr1");
  StateIndex index;
  const Model model = explore_indexed(*lr1, t, index, {.max_states = 1'000'000});
  const auto ec = check_fair_progress(model).witness;
  ASSERT_TRUE(ec.has_value());

  WitnessScheduler sched(model, index, *ec);
  rng::Rng rng(123);
  sim::EngineConfig cfg;
  cfg.max_steps = 40'000;
  const auto r = sim::run(*lr1, t, sched, rng, cfg);
  if (sched.entered_component()) {
    // Every philosopher keeps acting (the witness is a *fair* EC).
    EXPECT_LT(r.max_sched_gap, 1'000u);
  }
}

TEST(Witness, NoFairWitnessWhereProgressCertified) {
  for (const char* name : {"gdp1", "gdp2c"}) {
    const auto algo = algos::make_algorithm(name);
    const auto t = graph::parallel_arcs(3);
    const Model model = explore(*algo, t, {.max_states = 1'000'000});
    EXPECT_FALSE(check_fair_progress(model).witness.has_value()) << name;
  }
}

TEST(Witness, ExplorerIndexRoundTrips) {
  const auto t = graph::classic_ring(3);
  const auto lr1 = algos::make_algorithm("lr1");
  StateIndex index;
  const Model model = explore_indexed(*lr1, t, index, {.max_states = 1'000'000});
  EXPECT_EQ(index.size(), model.num_states());
  // The initial state's packed encoding maps to id 0, and the stored key
  // decodes back to the initial configuration.
  const auto id = index.find(lr1->initial_state(t));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, model.initial());
  EXPECT_EQ(index.codec().decode(index.key(*id)), lr1->initial_state(t));
}

TEST(Witness, RejectsEmptyComponent) {
  const auto t = graph::classic_ring(3);
  const auto lr1 = algos::make_algorithm("lr1");
  StateIndex index;
  const Model model = explore_indexed(*lr1, t, index, {.max_states = 1'000'000});
  EXPECT_THROW(WitnessScheduler(model, index, EndComponent{}), PreconditionError);
}

}  // namespace
}  // namespace gdp::mdp
