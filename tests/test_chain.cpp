// Quantitative chain analysis under the uniform fair scheduler.
#include <gtest/gtest.h>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/chain_analysis.hpp"
#include "gdp/mdp/fair_progress.hpp"

namespace gdp::mdp {
namespace {

Model explore_named(const std::string& algo, const graph::Topology& t) {
  const auto a = algos::make_algorithm(algo);
  return explore(*a, t);
}

TEST(Chain, Lr1RingReachesEatingAlmostSurely) {
  const Model m = explore_named("lr1", graph::classic_ring(3));
  const auto analysis = analyze_uniform_chain(m);
  EXPECT_NEAR(analysis.p_reach, 1.0, 1e-6);
  EXPECT_TRUE(analysis.expected_converged);
  EXPECT_GT(analysis.expected_steps, 3.0);   // needs >= wake+choose+take+take
  EXPECT_LT(analysis.expected_steps, 100.0);
}

TEST(Chain, UniformSchedulerIsProbabilisticallyFairEverywhere) {
  // Even where a *crafted* fair adversary defeats LR1 (fig1a), the uniform
  // scheduler reaches E with probability 1 — adversarial failure is not
  // average-case failure.
  const Model m = explore_named("lr1", graph::parallel_arcs(3));
  EXPECT_EQ(check_fair_progress(m).verdict, Verdict::kProgressFails);
  const auto analysis = analyze_uniform_chain(m);
  EXPECT_NEAR(analysis.p_reach, 1.0, 1e-6);
}

TEST(Chain, Gdp1SlowerThanOrderedFromColdStart) {
  // GDP1 pays for symmetry breaking; the ordered baseline starts pre-broken.
  const auto ring = graph::classic_ring(3);
  const auto gdp1 = analyze_uniform_chain(explore_named("gdp1", ring));
  const auto ordered = analyze_uniform_chain(explore_named("ordered", ring));
  EXPECT_TRUE(gdp1.expected_converged);
  EXPECT_TRUE(ordered.expected_converged);
  EXPECT_GT(gdp1.expected_steps, 0.9 * ordered.expected_steps);
}

TEST(ReachCurve, MonotoneAndConvergesToPReach) {
  const Model m = explore_named("lr2", graph::classic_ring(3));
  const auto curve = reach_curve(m, 400);
  ASSERT_EQ(curve.size(), 401u);
  EXPECT_DOUBLE_EQ(curve[0], 0.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    ASSERT_GE(curve[i] + 1e-12, curve[i - 1]) << "curve must be monotone at " << i;
  }
  EXPECT_GT(curve.back(), 0.99);
}

TEST(ReachCurve, FasterForSmallerSystems) {
  const auto small = reach_curve(explore_named("lr1", graph::classic_ring(3)), 60);
  const auto large = reach_curve(explore_named("lr1", graph::classic_ring(4)), 60);
  // After 30 uniform steps the 3-ring should be at least as far along.
  EXPECT_GE(small[30], large[30] - 0.05);
}

TEST(Chain, EatingInitialShortCircuits) {
  // Degenerate guard: if the initial state were eating, results are trivial.
  const Model m = explore_named("gdp1", graph::classic_ring(3));
  EXPECT_FALSE(m.eating(m.initial()));
  const auto analysis = analyze_uniform_chain(m);
  EXPECT_GT(analysis.iterations, 0u);
}

}  // namespace
}  // namespace gdp::mdp
