// Deeper GDP behaviour: nr dynamics, symmetry breaking, the §4 probability
// bound, and the difference between GDP1 and the ordered-forks ideal it
// converges to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"

namespace gdp::algos {
namespace {

double factorial(int n) {
  double f = 1.0;
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

/// The paper's lower bound for all-distinct random numbering:
/// m! / (m^k (m-k)!)  (§4, proof of Theorem 3).
double all_distinct_probability(int m, int k) {
  return factorial(m) / (std::pow(static_cast<double>(m), k) * factorial(m - k));
}

TEST(SymmetryBound, MatchesDirectSampling) {
  rng::Rng rng(31337);
  for (const auto& [m, k] : std::vector<std::pair<int, int>>{{3, 3}, {5, 3}, {8, 4}, {10, 5}}) {
    const int trials = 40000;
    int distinct = 0;
    std::vector<int> draw(static_cast<std::size_t>(k));
    for (int trial = 0; trial < trials; ++trial) {
      for (int i = 0; i < k; ++i) draw[static_cast<std::size_t>(i)] = rng.uniform_int(1, m);
      std::sort(draw.begin(), draw.end());
      distinct += std::adjacent_find(draw.begin(), draw.end()) == draw.end();
    }
    const double expected = all_distinct_probability(m, k);
    EXPECT_NEAR(static_cast<double>(distinct) / trials, expected, 0.015)
        << "m=" << m << " k=" << k;
  }
}

TEST(SymmetryBound, PositiveWheneverMGeqK) {
  for (int k = 2; k <= 8; ++k) {
    for (int m = k; m <= k + 4; ++m) {
      EXPECT_GT(all_distinct_probability(m, k), 0.0);
    }
  }
}

TEST(NrDynamics, ValuesStayInRange) {
  const auto gdp1 = make_algorithm("gdp1", AlgoConfig{.m = 5});
  const auto t = graph::fig1a();
  sim::RandomUniform sched;
  rng::Rng rng(99);
  sim::EngineConfig cfg;
  cfg.max_steps = 50'000;
  const auto result = sim::run(*gdp1, t, sched, rng, cfg);
  for (ForkId f = 0; f < t.num_forks(); ++f) {
    EXPECT_LE(result.final_state.fork(f).nr, 5);
  }
  EXPECT_GT(result.total_meals, 0u);
}

TEST(NrDynamics, OnlyHoldersRenumber) {
  // Every kRenumbered event must come from the philosopher holding the fork.
  const auto gdp1 = make_algorithm("gdp1");
  const auto t = graph::classic_ring(4);
  sim::RandomUniform sched;
  rng::Rng rng(7);
  sim::EngineConfig cfg;
  cfg.max_steps = 20'000;
  cfg.record_trace = true;
  const auto result = sim::run(*gdp1, t, sched, rng, cfg);
  for (const auto& entry : result.trace) {
    if (entry.event.kind == sim::EventKind::kRenumbered) {
      EXPECT_NE(entry.event.fork, kNoFork);
    }
  }
}

TEST(NrDynamics, AdjacentDistinctImpliesOrderedBehaviour) {
  // Force a fully distinct numbering; GDP1 then never renumbers, acting as
  // a hierarchical allocator (the paper's T ∩ C_h --F->_1 E argument).
  const auto gdp1 = make_algorithm("gdp1", AlgoConfig{.m = 10});
  const auto t = graph::classic_ring(4);
  auto s = gdp1->initial_state(t);
  for (ForkId f = 0; f < 4; ++f) s.fork(f).nr = static_cast<std::uint16_t>(f + 1);

  // Run manually from this state and count renumber events.
  sim::RandomUniform sched;
  rng::Rng rng(5);
  int renumbers = 0;
  int meals = 0;
  for (int step = 0; step < 20'000; ++step) {
    const PhilId p = rng.uniform_int(0, 3);
    const auto branches = gdp1->step(t, s, p);
    const auto& chosen = sim::sample_branch(branches, rng);
    renumbers += chosen.event.kind == sim::EventKind::kRenumbered;
    meals += chosen.event.kind == sim::EventKind::kTookSecond;
    s = chosen.next;
  }
  EXPECT_EQ(renumbers, 0);
  EXPECT_GT(meals, 0);
}

TEST(NrDynamics, LargerMBreaksSymmetryFaster) {
  // Average first-meal step should not grow when m grows (fewer collisions).
  const auto t = graph::fig1a();
  auto mean_first_meal = [&](int m) {
    double total = 0.0;
    const int trials = 40;
    for (int i = 0; i < trials; ++i) {
      const auto gdp1 = make_algorithm("gdp1", AlgoConfig{.m = m});
      sim::RandomUniform sched;
      rng::Rng rng(static_cast<std::uint64_t>(1000 * m + i));
      sim::EngineConfig cfg;
      cfg.max_steps = 100'000;
      cfg.stop_after_meals = 1;
      const auto r = sim::run(*gdp1, t, sched, rng, cfg);
      EXPECT_NE(r.first_meal_step, sim::kNever);
      total += static_cast<double>(r.first_meal_step);
    }
    return total / trials;
  };
  const double small_m = mean_first_meal(3);
  const double large_m = mean_first_meal(24);
  EXPECT_LT(large_m, small_m * 1.5);  // loose: larger m must not hurt much
}

TEST(EffectiveM, DefaultsToForkCount) {
  const auto gdp1 = make_algorithm("gdp1");
  EXPECT_EQ(gdp1->effective_m(graph::classic_ring(6)), 6);
  const auto fixed = make_algorithm("gdp1", AlgoConfig{.m = 9});
  EXPECT_EQ(fixed->effective_m(graph::classic_ring(6)), 9);
}

}  // namespace
}  // namespace gdp::algos
