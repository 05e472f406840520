// The uniform fair scheduler's Markov chain through the certified engine
// (quant::analyze_uniform): hitting probabilities and expected first-meal
// times as certified intervals, bit-identical at every thread count.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/quant/quant.hpp"

namespace gdp::mdp::quant {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Model explore_named(const std::string& algo, const graph::Topology& t) {
  const auto a = algos::make_algorithm(algo);
  return explore(*a, t);
}

double midpoint(const Interval& iv) { return (iv.lower + iv.upper) / 2; }

std::vector<int> thread_counts() {
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> counts{1, 2};
  if (hw > 2) counts.push_back(hw);
  return counts;
}

/// E[steps to first meal] under the uniform scheduler, computed by the
/// former uncertified uniform-chain engine at a 1e-15 stopping threshold and
/// rounded to 9 decimals. lr2/parallel(3) (17,186 states) and lr2/ring(3)
/// (19,009) are past quant's inline cutoff, so their quotient build and
/// sweeps run on the pool at threads > 1.
struct UniformPin {
  const char* algo;
  graph::Topology t;
  double expected_steps;
};

TEST(Chain, CertifiedIntervalsContainPinnedValues) {
  const UniformPin pins[] = {
      {"lr1", graph::parallel_arcs(3), 8.586316125},
      {"lr1", graph::classic_ring(3), 7.839583349},
      {"gdp1", graph::classic_ring(3), 12.090880736},
      {"ordered", graph::classic_ring(3), 7.793038409},
      {"lr2", graph::classic_ring(3), 10.166536246},
      {"gdp2", graph::parallel_arcs(3), 13.348270081},
      {"lr2", graph::parallel_arcs(3), 10.808256440},
  };
  for (const UniformPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.algo) + " on " + pin.t.name());
    const Model m = explore_named(pin.algo, pin.t);
    QuantResult base;
    for (const int threads : thread_counts()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      QuantOptions opts;
      opts.threads = threads;
      const QuantResult r = analyze_uniform(m, opts);
      ASSERT_EQ(r.certainty, Certainty::kCertified) << r.summary();
      EXPECT_EQ(r.p_min, (Interval{1.0, 1.0}));
      EXPECT_EQ(r.p_max, (Interval{1.0, 1.0}));
      EXPECT_LE(r.e_min.width(), opts.epsilon);
      // The pins carry 9 decimals: allow their rounding, nothing more.
      EXPECT_TRUE(r.e_min.contains(pin.expected_steps, 5e-10))
          << "[" << r.e_min.lower << ", " << r.e_min.upper << "] vs " << pin.expected_steps;
      EXPECT_EQ(r.progress.verdict, Verdict::kProgressCertain);
      if (threads == 1) {
        base = r;
        continue;
      }
      EXPECT_EQ(r.e_min, base.e_min);
      EXPECT_EQ(r.e_max, base.e_max);
      EXPECT_EQ(r.sweeps, base.sweeps);
    }
  }
}

TEST(Chain, UniformSchedulerIsProbabilisticallyFairEverywhere) {
  // Even where a *crafted* fair adversary defeats LR1 (fig1a), the uniform
  // scheduler reaches E with probability 1 — adversarial failure is not
  // average-case failure.
  const Model m = explore_named("lr1", graph::parallel_arcs(3));
  EXPECT_EQ(check_fair_progress(m).verdict, Verdict::kProgressFails);
  const QuantResult r = analyze_uniform(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  EXPECT_EQ(r.p_min, (Interval{1.0, 1.0}));
  EXPECT_TRUE(r.e_min.finite());
}

TEST(Chain, Gdp1SlowerThanOrderedFromColdStart) {
  // GDP1 pays for symmetry breaking; the ordered baseline starts pre-broken.
  const auto ring = graph::classic_ring(3);
  const QuantResult gdp1 = analyze_uniform(explore_named("gdp1", ring));
  const QuantResult ordered = analyze_uniform(explore_named("ordered", ring));
  ASSERT_EQ(gdp1.certainty, Certainty::kCertified);
  ASSERT_EQ(ordered.certainty, Certainty::kCertified);
  EXPECT_GT(midpoint(gdp1.e_min), 0.9 * midpoint(ordered.e_min));
}

/// Hand-built MDP helper: rows in (state-major, philosopher-major) order.
Model hand_model(int num_phils, const std::vector<std::vector<Outcome>>& rows,
                 std::vector<std::uint64_t> eaters) {
  std::vector<std::uint64_t> offsets{0};
  std::vector<Outcome> outcomes;
  for (const auto& row : rows) {
    for (const Outcome& o : row) outcomes.push_back(o);
    offsets.push_back(outcomes.size());
  }
  std::vector<bool> frontier(eaters.size(), false);
  return Model::build(num_phils, std::move(offsets), std::move(outcomes), std::move(eaters),
                      std::move(frontier));
}

TEST(Chain, AvoidingBottomSccHalvesTheMeal) {
  // Scheduling P0 feeds it, scheduling P1 parks both in s2 for good: under
  // the uniform scheduler the meal comes with probability 1/2 and its
  // expected time is infinite. {s2} is the chain's avoiding bottom SCC.
  const Model m = hand_model(2,
                             {{{1.0f, 1}},   // s0, P0: eat
                              {{1.0f, 2}},   // s0, P1: into the trap
                              {{1.0f, 1}},   // s1, P0
                              {{1.0f, 1}},   // s1, P1
                              {{1.0f, 2}},   // s2, P0: loop
                              {{1.0f, 2}}},  // s2, P1: loop
                             {0, 0b01, 0});
  const QuantResult r = analyze_uniform(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  EXPECT_TRUE(r.p_min.contains(0.5, 1e-9) && r.p_max.contains(0.5, 1e-9)) << r.summary();
  EXPECT_TRUE(r.p_trap.contains(0.5, 1e-9)) << r.summary();
  EXPECT_EQ(r.e_min, (Interval{kInf, kInf}));
  EXPECT_EQ(r.progress.verdict, Verdict::kProgressFails);
  ASSERT_TRUE(r.progress.witness);
  EXPECT_EQ(r.progress.witness->states, std::vector<StateId>{2});
}

TEST(Chain, EatingInitialShortCircuits) {
  const Model m = hand_model(1, {{{1.0f, 0}}}, {1});
  const QuantResult r = analyze_uniform(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  EXPECT_EQ(r.p_min, (Interval{1.0, 1.0}));
  EXPECT_EQ(r.e_min, (Interval{0.0, 0.0}));
  EXPECT_EQ(r.sweeps, 0u);
}

}  // namespace
}  // namespace gdp::mdp::quant
