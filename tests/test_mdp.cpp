// The model checker: exploration, end components, and the machine-checked
// versions of the paper's four theorems on small instances.
#include <gtest/gtest.h>

#include "gdp/common/check.hpp"
#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"

namespace gdp::mdp {
namespace {

Model explore_named(const std::string& algo, const graph::Topology& t,
                    std::size_t cap = 2'000'000) {
  const auto a = algos::make_algorithm(algo);
  return explore(*a, t, {.max_states = cap});
}

TEST(Explore, RowsAreProbabilityDistributions) {
  const Model m = explore_named("lr1", graph::classic_ring(3));
  ASSERT_GT(m.num_states(), 0u);
  EXPECT_FALSE(m.truncated());
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (int p = 0; p < m.num_phils(); ++p) {
      const auto [begin, end] = m.row(s, p);
      ASSERT_NE(begin, end) << "complete model has no empty rows";
      double total = 0.0;
      for (const Outcome* o = begin; o != end; ++o) {
        total += o->prob;
        ASSERT_LT(o->next, m.num_states());
      }
      ASSERT_NEAR(total, 1.0, 1e-6);
    }
  }
}

TEST(Explore, InitialStateIsThinking) {
  const Model m = explore_named("lr1", graph::classic_ring(3));
  EXPECT_FALSE(m.eating(m.initial()));
  EXPECT_EQ(m.eaters(m.initial()), 0u);
}

TEST(Explore, TruncationFlagsFrontier) {
  const Model m = explore_named("lr1", graph::fig1a(), 500);
  EXPECT_TRUE(m.truncated());
  bool has_frontier = false;
  for (StateId s = 0; s < m.num_states(); ++s) has_frontier |= m.frontier(s);
  EXPECT_TRUE(has_frontier);
}

TEST(Explore, CapAppliesAtLevelBoundaries) {
  // Level-synchronous truncation: a capped run never stops mid-level, so
  // the capped model has at least `cap` states, every expanded state has
  // full rows, and the unexpanded frontier is the contiguous id tail.
  const std::size_t cap = 500;
  const Model m = explore_named("lr1", graph::fig1a(), cap);
  ASSERT_TRUE(m.truncated());
  EXPECT_GE(m.num_states(), cap);
  StateId first_frontier = static_cast<StateId>(m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (m.frontier(s)) {
      first_frontier = s;
      break;
    }
  }
  ASSERT_LT(first_frontier, m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s) {
    EXPECT_EQ(m.frontier(s), s >= first_frontier) << "state " << s;
    for (int p = 0; p < m.num_phils(); ++p) {
      const auto [begin, end] = m.row(s, p);
      EXPECT_EQ(begin == end, s >= first_frontier) << "row (" << s << ", " << p << ")";
    }
  }
}

TEST(Explore, RefusesMoreThan64Philosophers) {
  // eater_mask/target_mask are single 64-bit words; star(65) has 65
  // philosophers (one per leaf), so exploration must refuse instead of
  // silently folding philosopher 64 onto bit 63.
  const auto algo = algos::make_algorithm("lr1");
  EXPECT_THROW(explore(*algo, graph::star(65)), PreconditionError);
}

TEST(Explore, ModelBuildRefusesMoreThan64Philosophers) {
  EXPECT_THROW(Model::build(65, std::vector<std::uint64_t>(66, 0), {}, {0}, {true}, true),
               PreconditionError);
}

TEST(Explore, RequiresHungryMode) {
  const auto algo = algos::make_algorithm(
      "lr1", algos::AlgoConfig{.think = algos::ThinkMode::kCoin, .think_coin = 0.5});
  EXPECT_THROW(explore(*algo, graph::classic_ring(3)), PreconditionError);
}

TEST(Reachability, InitialAlwaysReachable) {
  const Model m = explore_named("lr1", graph::classic_ring(3));
  const auto reached = reachable_states(m);
  EXPECT_TRUE(reached[m.initial()]);
  // BFS-built models are reachable everywhere by construction.
  for (StateId s = 0; s < m.num_states(); ++s) EXPECT_TRUE(reached[s]);
}

TEST(EndComponents, OrderedBaselineDeadlockAppearsAsFairEc) {
  // The ticket baseline's circular-wait deadlock on fig1a is an all-phil
  // self-loop state: exactly a fair end component of size >= 1.
  const Model m = explore_named("ticket", graph::fig1a());
  const auto result = check_fair_progress(m);
  EXPECT_EQ(result.verdict, Verdict::kProgressFails);
}

// --- Machine-checked theorem table (small instances). ---

TEST(Theorems, LehmannRabinCorrectOnRings) {
  for (int n : {3, 4}) {
    const auto r = check_fair_progress(explore_named("lr1", graph::classic_ring(n)));
    EXPECT_EQ(r.verdict, Verdict::kProgressCertain) << n;
  }
}

TEST(Theorems, Thm1Lr1FailsOnFig1a) {
  const auto r = check_fair_progress(explore_named("lr1", graph::fig1a()));
  EXPECT_EQ(r.verdict, Verdict::kProgressFails);
  EXPECT_GT(r.witness_size, 0u);
}

TEST(Theorems, Thm1Lr1FailsOnRingChord) {
  const auto r = check_fair_progress(explore_named("lr1", graph::ring_with_chord(4)));
  EXPECT_EQ(r.verdict, Verdict::kProgressFails);
}

TEST(Theorems, Thm1PendantStarvesTheRingOnly) {
  // On ring+pendant the pendant philosopher can always eat (global progress
  // certified) but the ring philosophers H make no progress — the exact
  // statement of Theorem 1.
  const Model m = explore_named("lr1", graph::ring_with_pendant(3));
  EXPECT_EQ(check_fair_progress(m).verdict, Verdict::kProgressCertain);
  EXPECT_EQ(check_fair_progress(m, 0b0111).verdict, Verdict::kProgressFails);  // H = P0..P2
}

TEST(Theorems, Thm1DoesNotApplyToLr2) {
  // "The negative result expressed in Theorem 1 does not hold for LR2."
  const Model m = explore_named("lr2", graph::ring_with_pendant(3));
  EXPECT_EQ(check_fair_progress(m).verdict, Verdict::kProgressCertain);
  EXPECT_EQ(check_fair_progress(m, 0b0111).verdict, Verdict::kProgressCertain);
}

TEST(Theorems, Thm2Lr2FailsOnThreeParallelArcs) {
  const auto r = check_fair_progress(explore_named("lr2", graph::parallel_arcs(3)));
  EXPECT_EQ(r.verdict, Verdict::kProgressFails);
}

TEST(Theorems, Thm3Gdp1ProgressesEverywhereChecked) {
  for (const auto& t : {graph::classic_ring(3), graph::parallel_arcs(3),
                        graph::ring_with_pendant(3)}) {
    const auto r = check_fair_progress(explore_named("gdp1", t, 3'000'000));
    EXPECT_EQ(r.verdict, Verdict::kProgressCertain) << t.name();
  }
}

TEST(Theorems, Thm4Gdp2cLockoutFreeOnSmallInstances) {
  for (const auto& t : {graph::classic_ring(3), graph::parallel_arcs(3)}) {
    const Model m = explore_named("gdp2c", t, 3'000'000);
    for (PhilId v = 0; v < t.num_phils(); ++v) {
      EXPECT_EQ(check_lockout_freedom(m, v).verdict, Verdict::kProgressCertain)
          << t.name() << " victim " << v;
    }
  }
}

TEST(Theorems, ErratumLiteralGdp2NotLockoutFreeOnRing3) {
  const Model m = explore_named("gdp2", graph::classic_ring(3));
  bool some_victim_starvable = false;
  for (PhilId v = 0; v < 3; ++v) {
    some_victim_starvable |=
        check_lockout_freedom(m, v).verdict == Verdict::kProgressFails;
  }
  EXPECT_TRUE(some_victim_starvable);
  // ... while plain progress still holds (Theorem 3 applies to GDP2 too).
  EXPECT_EQ(check_fair_progress(m).verdict, Verdict::kProgressCertain);
}

TEST(Theorems, Gdp1NotLockoutFree) {
  // §5: GDP1 guarantees progress but not lockout-freedom.
  const Model m = explore_named("gdp1", graph::classic_ring(3));
  bool some_victim_starvable = false;
  for (PhilId v = 0; v < 3; ++v) {
    some_victim_starvable |=
        check_lockout_freedom(m, v).verdict == Verdict::kProgressFails;
  }
  EXPECT_TRUE(some_victim_starvable);
}

TEST(Theorems, Lr2LockoutFreeOnRing3) {
  const Model m = explore_named("lr2", graph::classic_ring(3));
  for (PhilId v = 0; v < 3; ++v) {
    EXPECT_EQ(check_lockout_freedom(m, v).verdict, Verdict::kProgressCertain) << v;
  }
}

TEST(Verdicts, SummaryMentionsTheOutcome) {
  const auto r = check_fair_progress(explore_named("lr1", graph::parallel_arcs(3)));
  EXPECT_NE(r.summary().find("NO progress"), std::string::npos);
}

}  // namespace
}  // namespace gdp::mdp
