// Cross-module integration: simulator, adversaries, model checker and
// thread runtime must tell one consistent story about the paper's claims.
#include <gtest/gtest.h>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/algorithms.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/runtime/runtime.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"
#include "gdp/sim/schedulers/trap_fig1a.hpp"
#include "gdp/stats/jain.hpp"

namespace gdp {
namespace {

graph::Topology fig1_topology(int index) {
  switch (index) {
    case 0: return graph::fig1a();
    case 1: return graph::fig1b();
    case 2: return graph::fig1c();
    default: return graph::fig1d();
  }
}

class Fig1Suite : public ::testing::TestWithParam<int> {};

TEST_P(Fig1Suite, GdpAlgorithmsServeEveryFigureOneSystem) {
  const auto t = fig1_topology(GetParam());
  for (const char* name : {"gdp1", "gdp2", "gdp2c"}) {
    const auto algo = algos::make_algorithm(name);
    sim::LongestWaiting sched;
    rng::Rng rng(17);
    sim::EngineConfig cfg;
    cfg.max_steps = 200'000;
    cfg.check_invariants = true;
    const auto r = sim::run(*algo, t, sched, rng, cfg);
    EXPECT_TRUE(r.invariant_violation.empty()) << name << ": " << r.invariant_violation;
    EXPECT_GT(r.total_meals, 0u) << name << " on " << t.name();
    EXPECT_TRUE(r.everyone_ate()) << name << " on " << t.name();
  }
}

TEST_P(Fig1Suite, EveryFigureOneSystemMeetsTheTheoremPremises) {
  // All four drawn systems are "generalized": each satisfies the Theorem 1
  // premise (they are why LR1 is insufficient in the paper's setting).
  const auto t = fig1_topology(GetParam());
  EXPECT_TRUE(graph::thm1_premise(t).has_value()) << t.name();
}

INSTANTIATE_TEST_SUITE_P(AllFour, Fig1Suite, ::testing::Range(0, 4));

TEST(Consistency, TrapAndCheckerAgreeOnFig1a) {
  // The model checker certifies that a fair no-progress adversary exists
  // for LR1 on fig1a; the scripted trap constructs one. Both must agree.
  const auto verdict =
      mdp::check_fair_progress(*algos::make_algorithm("lr1"), graph::fig1a(),
                               {.max_states = 1'500'000});
  EXPECT_EQ(verdict.verdict, mdp::Verdict::kProgressFails);

  int trapped = 0;
  for (int i = 0; i < 40; ++i) {
    const auto lr1 = algos::make_algorithm("lr1");
    sim::TrapFig1a trap;
    rng::Rng rng(static_cast<std::uint64_t>(5'000 + i));
    sim::EngineConfig cfg;
    cfg.max_steps = 20'000;
    const auto r = sim::run(*lr1, graph::fig1a(), trap, rng, cfg);
    trapped += trap.trapped() && r.total_meals == 0;
  }
  EXPECT_GT(trapped, 0);
}

TEST(Consistency, CheckerCertifiedAlgorithmsSurviveEveryInTreeAdversary) {
  // GDP1 is progress-certified on parallel(3); no scheduler we ship should
  // be able to stall it there.
  const auto t = graph::parallel_arcs(3);
  const auto verdict =
      mdp::check_fair_progress(*algos::make_algorithm("gdp1"), t, {.max_states = 1'000'000});
  ASSERT_EQ(verdict.verdict, mdp::Verdict::kProgressCertain);
  for (int which = 0; which < 3; ++which) {
    const auto gdp1 = algos::make_algorithm("gdp1");
    std::unique_ptr<sim::Scheduler> sched;
    if (which == 0) sched = std::make_unique<sim::RoundRobin>();
    if (which == 1) sched = std::make_unique<sim::RandomUniform>();
    if (which == 2) sched = std::make_unique<sim::LongestWaiting>();
    rng::Rng rng(static_cast<std::uint64_t>(which));
    sim::EngineConfig cfg;
    cfg.max_steps = 50'000;
    const auto r = sim::run(*gdp1, t, *sched, rng, cfg);
    EXPECT_GT(r.total_meals, 0u) << sched->name();
  }
}

TEST(Consistency, SimulationAndThreadsAgreeOnLiveness) {
  // Same algorithm, same topology: the simulator's fair run and the real
  // thread runtime must both progress.
  const auto t = graph::fig1a();
  for (const char* name : {"lr1", "gdp1", "gdp2c"}) {
    const auto algo = algos::make_algorithm(name);
    sim::RandomUniform sched;
    rng::Rng rng(11);
    sim::EngineConfig cfg;
    cfg.max_steps = 40'000;
    const auto sim_result = sim::run(*algo, t, sched, rng, cfg);
    EXPECT_GT(sim_result.total_meals, 0u) << name;

    runtime::RuntimeConfig rt;
    rt.algorithm = name;
    rt.target_meals = 500;
    rt.duration = std::chrono::milliseconds(5'000);
    const auto thread_result = runtime::run_threads(t, rt);
    EXPECT_GE(thread_result.total_meals, 500u) << name;
    EXPECT_EQ(thread_result.exclusion_violations, 0u) << name;
  }
}

TEST(Consistency, CourtesyImprovesFairnessEverywhere) {
  // Jain index of meal distribution under a biased-ish scheduler: gdp2c
  // must not be less fair than gdp1.
  const auto t = graph::fig1d();
  auto jain_of = [&](const char* name) {
    const auto algo = algos::make_algorithm(name);
    sim::RandomUniform sched;
    rng::Rng rng(31);
    sim::EngineConfig cfg;
    cfg.max_steps = 150'000;
    const auto r = sim::run(*algo, t, sched, rng, cfg);
    return stats::jain_index(r.meals_of);
  };
  EXPECT_GT(jain_of("gdp2c"), 0.8 * jain_of("gdp1"));
}

TEST(Consistency, PremiseCheckersMatchVerdictsOnFamilies) {
  // Where thm1_premise is absent and the graph is a classic ring, LR1 is
  // certified; where fig-scale graphs satisfy it and are small enough to
  // check, LR1 fails at least globally-or-wrt-H.
  for (int n : {3, 4}) {
    const auto ring = graph::classic_ring(n);
    EXPECT_FALSE(graph::thm1_premise(ring).has_value());
    const auto verdict = mdp::check_fair_progress(*algos::make_algorithm("lr1"), ring);
    EXPECT_EQ(verdict.verdict, mdp::Verdict::kProgressCertain) << n;
  }
  const auto chord = graph::ring_with_chord(4);
  EXPECT_TRUE(graph::thm1_premise(chord).has_value());
  const auto verdict = mdp::check_fair_progress(*algos::make_algorithm("lr1"), chord);
  EXPECT_EQ(verdict.verdict, mdp::Verdict::kProgressFails);
}

}  // namespace
}  // namespace gdp
