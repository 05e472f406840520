// The model checker: exploration, end components, and the machine-checked
// versions of the paper's four theorems on small instances.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/mdp/store/store.hpp"

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

// --- Rootedness: state ids are a discovery order from the initial state.

/// Oracle: states reachable from the initial state (any adversary, any
/// outcomes), by DFS over the Model read API.
template <class ModelT>
std::vector<bool> reachable_states(const ModelT& model) {
  std::vector<bool> reached(model.num_states(), false);
  std::vector<StateId> stack{model.initial()};
  reached[model.initial()] = true;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [begin, end] = model.row(s, p);
      for (const Outcome* o = begin; o != end; ++o) {
        if (!reached[o->next]) {
          reached[o->next] = true;
          stack.push_back(o->next);
        }
      }
    }
  }
  return reached;
}

/// Oracle: the first state s > 0 whose lowest predecessor id is not below s
/// (num_states() if state ids are a discovery order from state 0).
template <class ModelT>
std::size_t first_orphan(const ModelT& model) {
  std::vector<std::size_t> lowest_pred(model.num_states(), model.num_states());
  for (StateId u = 0; u < model.num_states(); ++u) {
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [begin, end] = model.row(u, p);
      for (const Outcome* o = begin; o != end; ++o) {
        lowest_pred[o->next] = std::min<std::size_t>(lowest_pred[o->next], u);
      }
    }
  }
  for (std::size_t s = 1; s < model.num_states(); ++s) {
    if (lowest_pred[s] >= s) return s;
  }
  return model.num_states();
}

template <class ModelT>
void expect_rooted(const ModelT& model, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_GT(model.num_states(), 0u);
  const auto reached = reachable_states(model);
  EXPECT_EQ(std::count(reached.begin(), reached.end(), true),
            static_cast<std::ptrdiff_t>(model.num_states()));
  EXPECT_EQ(first_orphan(model), model.num_states());
}

TEST(Reachability, InitialAlwaysReachable) {
  // Explored, capped, checkpoint-loaded and resumed models are all rooted
  // by construction: every state is reachable and ids are a discovery order.
  const std::string path = ::testing::TempDir() + "gdp_test_mdp_rooted_" +
                           std::to_string(::getpid()) + ".gdpstore";
  for (const char* name : {"lr1", "lr2", "gdp2"}) {
    const auto algo = algos::make_algorithm(name);
    for (const auto& t : {graph::classic_ring(3), graph::parallel_arcs(3)}) {
      const std::string tag = std::string(name) + " on " + t.name();
      const Model full = explore(*algo, t);
      ASSERT_FALSE(full.truncated());
      expect_rooted(full, tag + ", explored");

      const store::ChunkedModel capped = store::explore(
          *algo, t, {.chunk_states = 512}, {.max_states = full.num_states() / 2});
      ASSERT_TRUE(capped.truncated());
      expect_rooted(capped, tag + ", capped");
      capped.save_checkpoint(path);
      const auto loaded = store::ChunkedModel::load_checkpoint(*algo, t, path);
      expect_rooted(loaded, tag + ", checkpoint-loaded");
      const auto resumed = store::resume(*algo, t, loaded);
      EXPECT_EQ(resumed.num_states(), full.num_states());
      expect_rooted(resumed, tag + ", resumed");
    }
    const Model pendant = explore_named(name, graph::ring_with_pendant(3), 3'000);
    ASSERT_TRUE(pendant.truncated());
    expect_rooted(pendant, std::string(name) + " on ring+pendant(3), capped");
  }
  std::filesystem::remove(path);
}

/// A 3-state, 1-philosopher model with the given successor of each state.
Model three_states(StateId next0, StateId next1, StateId next2) {
  return Model::build(1, {0, 1, 2, 3}, {{1.0f, next0}, {1.0f, next1}, {1.0f, next2}}, {0, 0, 0},
                      {false, false, false});
}

TEST(Reachability, ModelBuildRequiresDiscoveryOrder) {
  EXPECT_NO_THROW(three_states(1, 2, 0));
  // State 2 is unreachable: 0 <-> 1, 2 loops on itself.
  EXPECT_THROW(three_states(1, 0, 2), PreconditionError);
  // Rooted (0 -> 2 -> 1) but not discovery-ordered: s1 is reached only
  // from s2.
  EXPECT_THROW(three_states(2, 1, 1), PreconditionError);
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
  const Model m = explore_named("lr1", graph::fig1a());
  const auto r = check_fair_progress(m);
  EXPECT_EQ(r.verdict, Verdict::kProgressFails);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_FALSE(r.witness->states.empty());
  EXPECT_TRUE(r.witness->fair(m.num_phils()));
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

// gdp2 on ring(3) has philosophers 0..2: a victim outside that range names
// nobody (and 1 << victim is undefined past 63 or below 0), so the check
// refuses rather than deciding a property of a philosopher that does not
// exist.
TEST(Verdicts, LockoutVictimMustBeAPhilosopher) {
  const Model m = explore_named("gdp2", graph::classic_ring(3));
  for (const PhilId v : {0, 1, 2}) EXPECT_NO_THROW(check_lockout_freedom(m, v)) << v;
  for (const PhilId v : {3, 63, 64, 1000, -1}) {
    EXPECT_THROW(check_lockout_freedom(m, v), PreconditionError) << v;
  }
}

// One precondition for every mask entry point, contiguous and chunked, the
// qualitative check and the quantitative analysis alike: the mask must name
// at least one of the model's philosophers.
TEST(Verdicts, MaskMustNameAPhilosopher) {
  const auto algo = algos::make_algorithm("lr1");
  const auto t = graph::classic_ring(3);
  const Model m = explore(*algo, t);
  const store::ChunkedModel chunked = store::explore(*algo, t, {.chunk_states = 512});
  for (const std::uint64_t mask : {std::uint64_t{0}, std::uint64_t{0b1000},
                                   std::uint64_t{1} << 63}) {
    SCOPED_TRACE("mask " + std::to_string(mask));
    EXPECT_THROW(check_fair_progress(m, mask), PreconditionError);
    EXPECT_THROW(quant::analyze(m, mask), PreconditionError);
    EXPECT_THROW(store::check_fair_progress(chunked, mask), PreconditionError);
    EXPECT_THROW(store::analyze(chunked, mask), PreconditionError);
  }
  // A mask naming P0 among outside bits is a mask on P0.
  EXPECT_EQ(check_fair_progress(m, 0b1001).num_mecs, check_fair_progress(m, 0b0001).num_mecs);
  EXPECT_NO_THROW(quant::analyze(m, 0b1001));
}

TEST(Verdicts, SummaryMentionsTheOutcome) {
  const auto r = check_fair_progress(explore_named("lr1", graph::parallel_arcs(3)));
  EXPECT_NE(r.summary().find("NO progress"), std::string::npos);
}

}  // namespace
}  // namespace gdp::mdp
