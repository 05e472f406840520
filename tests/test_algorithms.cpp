// Per-step semantics of the paper's algorithms (Tables 1-4) and the
// cross-algorithm contract: probabilities sum to 1, invariants preserved,
// progress under fair scheduling.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"

namespace gdp::algos {
namespace {

using sim::Branch;
using sim::EventKind;
using sim::Phase;
using sim::SimState;

/// Drives p through `steps` scheduled atomic steps, always sampling the
/// branch chosen by `pick` (default: first).
SimState drive(const Algorithm& algo, const graph::Topology& t, SimState s, PhilId p, int steps,
               int pick = 0) {
  for (int i = 0; i < steps; ++i) {
    auto branches = algo.step(t, s, p);
    s = branches[static_cast<std::size_t>(std::min<int>(pick, static_cast<int>(branches.size()) - 1))]
            .next;
  }
  return s;
}

TEST(Lr1Semantics, DrawIsFairByDefault) {
  const auto lr1 = make_algorithm("lr1");
  const auto t = graph::classic_ring(3);
  SimState s = lr1->initial_state(t);
  s = drive(*lr1, t, s, 0, 1);  // wake
  EXPECT_EQ(s.phil(0).phase, Phase::kChoose);
  const auto branches = lr1->step(t, s, 0);
  ASSERT_EQ(branches.size(), 2u);
  EXPECT_DOUBLE_EQ(branches[0].prob, 0.5);
  EXPECT_DOUBLE_EQ(branches[1].prob, 0.5);
  EXPECT_EQ(branches[0].event.kind, EventKind::kChose);
}

TEST(Lr1Semantics, BiasedDrawDropsZeroBranch) {
  const auto lr1 = make_algorithm("lr1", AlgoConfig{.p_left = 1.0});
  const auto t = graph::classic_ring(3);
  SimState s = lr1->initial_state(t);
  s = drive(*lr1, t, s, 0, 1);
  const auto branches = lr1->step(t, s, 0);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].event.side, Side::kLeft);
}

TEST(Lr1Semantics, BusyWaitOnTakenFirstFork) {
  const auto lr1 = make_algorithm("lr1", AlgoConfig{.p_left = 1.0});  // always pick left
  const auto t = graph::classic_ring(3);
  SimState s = lr1->initial_state(t);
  // P0 wakes, commits to left fork (f0) and takes it.
  s = drive(*lr1, t, s, 0, 3);
  EXPECT_EQ(s.fork(0).holder, 0);
  EXPECT_EQ(s.phil(0).phase, Phase::kTrySecond);
  // P2's left fork is f2; wake P2, commit left, take f2.
  s = drive(*lr1, t, s, 2, 3);
  EXPECT_EQ(s.fork(2).holder, 2);
  // P2 tries its second fork f0 — taken: release f2, back to choosing.
  auto branches = lr1->step(t, s, 2);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].event.kind, EventKind::kFailedSecond);
  s = branches[0].next;
  EXPECT_TRUE(s.fork(2).free());
  EXPECT_EQ(s.phil(2).phase, Phase::kChoose);
  // Re-commit left (f2, free): take it; P0 still holds f0; now make P1
  // hold f1 so P2->f0 busy-wait can be observed... simpler: P2 commits to
  // f2 again and P0 never released f0, so P2 cycles. Instead observe the
  // busy-wait on P1 whose left f1 is free but make it taken first:
  s = drive(*lr1, t, s, 1, 2);  // P1 wakes, commits f1
  EXPECT_EQ(s.phil(1).phase, Phase::kCommit);
  SimState blocked = s;
  blocked.fork(1).holder = 0;  // f1 grabbed (P0 holds f0 and f1 = eats soon)
  blocked.phil(0).phase = Phase::kEating;
  auto wait = lr1->step(t, blocked, 1);
  ASSERT_EQ(wait.size(), 1u);
  EXPECT_EQ(wait[0].event.kind, EventKind::kBlockedFirst);
  EXPECT_TRUE(wait[0].next == blocked);  // pure self-loop
}

TEST(Lr1Semantics, EatingReleasesBothAndThinks) {
  const auto lr1 = make_algorithm("lr1", AlgoConfig{.p_left = 1.0});
  const auto t = graph::classic_ring(3);
  SimState s = lr1->initial_state(t);
  s = drive(*lr1, t, s, 0, 4);  // wake, choose, take f0, take f1 -> eating
  EXPECT_EQ(s.phil(0).phase, Phase::kEating);
  EXPECT_EQ(s.fork(0).holder, 0);
  EXPECT_EQ(s.fork(1).holder, 0);
  s = drive(*lr1, t, s, 0, 1);
  EXPECT_EQ(s.phil(0).phase, Phase::kThinking);
  EXPECT_TRUE(s.fork(0).free());
  EXPECT_TRUE(s.fork(1).free());
}

TEST(Gdp1Semantics, ChoosesHigherNrTiesRight) {
  const auto gdp1 = make_algorithm("gdp1");
  const auto t = graph::classic_ring(3);
  SimState s = drive(*gdp1, t, gdp1->initial_state(t), 0, 1);  // wake
  ASSERT_EQ(s.phil(0).phase, Phase::kChoose);
  auto chosen = [&] {
    const auto branches = gdp1->step(t, s, 0);
    EXPECT_EQ(branches.size(), 1u);
    EXPECT_EQ(branches[0].event.kind, EventKind::kChose);
    EXPECT_EQ(branches[0].next.phil(0).committed, branches[0].event.side);
    return branches[0].event.side;
  };
  // All nr equal (0): tie -> right (Table 3's else branch).
  EXPECT_EQ(chosen(), Side::kRight);
  s.fork(0).nr = 3;  // P0's left
  EXPECT_EQ(chosen(), Side::kLeft);
  s.fork(1).nr = 5;  // P0's right now higher
  EXPECT_EQ(chosen(), Side::kRight);
}

TEST(Gdp1Semantics, RenumberBranchesUniformOverM) {
  const auto gdp1 = make_algorithm("gdp1", AlgoConfig{.m = 7});
  const auto t = graph::classic_ring(3);
  SimState s = gdp1->initial_state(t);
  s = drive(*gdp1, t, s, 0, 3);  // wake, choose (tie->right f1), take f1
  EXPECT_EQ(s.phil(0).phase, Phase::kRenumber);
  const auto branches = gdp1->step(t, s, 0);
  ASSERT_EQ(branches.size(), 7u);  // nr equal: m-way uniform renumber
  double total = 0.0;
  for (const Branch& b : branches) {
    EXPECT_DOUBLE_EQ(b.prob, 1.0 / 7);
    EXPECT_EQ(b.event.kind, EventKind::kRenumbered);
    EXPECT_EQ(b.next.fork(1).nr, b.event.value);
    total += b.prob;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Gdp1Semantics, NoRenumberWhenDistinct) {
  const auto gdp1 = make_algorithm("gdp1");
  const auto t = graph::classic_ring(3);
  SimState s = gdp1->initial_state(t);
  s.fork(1).nr = 2;  // P0 right higher -> first
  s = drive(*gdp1, t, s, 0, 3);
  EXPECT_EQ(s.phil(0).phase, Phase::kRenumber);
  const auto branches = gdp1->step(t, s, 0);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].event.kind, EventKind::kNrDistinct);
}

TEST(Gdp1Semantics, RenumberMayCollideAgain) {
  // Table 3 has no retry: one of the m outcomes equals the other fork's nr.
  const auto gdp1 = make_algorithm("gdp1", AlgoConfig{.m = 4});
  const auto t = graph::classic_ring(4);
  SimState s = gdp1->initial_state(t);
  s.fork(0).nr = 2;
  s.fork(1).nr = 2;  // P0's forks tie at 2 -> first = right (f1)
  s = drive(*gdp1, t, s, 0, 3);
  const auto branches = gdp1->step(t, s, 0);
  ASSERT_EQ(branches.size(), 4u);
  bool collision_possible = false;
  for (const Branch& b : branches) collision_possible |= b.next.fork(1).nr == 2;
  EXPECT_TRUE(collision_possible);
}

TEST(Validation, GdpRejectsSmallM) {
  EXPECT_THROW(make_algorithm("gdp1", AlgoConfig{.m = 2})->initial_state(graph::classic_ring(4)),
               PreconditionError);
  EXPECT_NO_THROW(
      make_algorithm("gdp1", AlgoConfig{.m = 4})->initial_state(graph::classic_ring(4)));
  // nr is a 16-bit field: a larger m is refused up front, not at the first
  // renumbering step.
  EXPECT_THROW(make_algorithm("gdp1", AlgoConfig{.m = 70'000})->validate(graph::classic_ring(4)),
               PreconditionError);
  EXPECT_NO_THROW(
      make_algorithm("gdp2", AlgoConfig{.m = 0xffff})->validate(graph::classic_ring(4)));
}

TEST(Validation, DrawBiasMustLieInUnitInterval) {
  // A bias outside [0, 1] gives step rows whose mass is not 1; both the
  // model checker and the simulator must refuse it up front.
  const auto t = graph::classic_ring(3);
  for (const double p_left : {1.5, -0.25, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(p_left);
    const auto lr1 = make_algorithm("lr1", AlgoConfig{.p_left = p_left});
    EXPECT_THROW(mdp::explore(*lr1, t), PreconditionError);
    sim::RandomUniform sched;
    rng::Rng rng(1);
    EXPECT_THROW(sim::run(*lr1, t, sched, rng, sim::EngineConfig{.max_steps = 100}),
                 PreconditionError);
  }
  for (const double p_left : {0.0, 1.0}) {
    EXPECT_NO_THROW(make_algorithm("lr1", AlgoConfig{.p_left = p_left})->initial_state(t));
  }
}

TEST(Validation, CoinModeThinkCoinMustLieInHalfOpenUnitInterval) {
  // think_coin = 0 would keep every philosopher thinking forever.
  const auto t = graph::classic_ring(3);
  for (const double coin : {0.0, -0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(coin);
    const auto lr1 =
        make_algorithm("lr1", AlgoConfig{.think = ThinkMode::kCoin, .think_coin = coin});
    sim::RandomUniform sched;
    rng::Rng rng(1);
    EXPECT_THROW(sim::run(*lr1, t, sched, rng, sim::EngineConfig{.max_steps = 2'000}),
                 PreconditionError);
  }
  EXPECT_NO_THROW(
      make_algorithm("lr1", AlgoConfig{.think = ThinkMode::kCoin, .think_coin = 1.0})
          ->initial_state(t));
  // The coin is ignored outside kCoin mode.
  EXPECT_NO_THROW(make_algorithm("lr1", AlgoConfig{.think_coin = 0.0})->initial_state(t));
}

TEST(Validation, TwoForkProgramsRefusePhasesTheyNeverEnter) {
  // Register belongs to the courteous programs, Renumber to GDP, WaitGrant
  // to the arbiter and ticket baselines.
  const auto t = graph::classic_ring(4);
  const std::pair<const char*, Phase> foreign[] = {
      {"lr1", Phase::kRegister},     {"gdp1", Phase::kRegister},
      {"ordered", Phase::kRegister}, {"colored", Phase::kRegister},
      {"lr1", Phase::kRenumber},     {"lr2", Phase::kRenumber},
      {"ordered", Phase::kRenumber}, {"gdp2c", Phase::kWaitGrant},
  };
  for (const auto& [name, phase] : foreign) {
    const auto algo = make_algorithm(name);
    SimState s = algo->initial_state(t);
    s.phil(0).phase = phase;
    try {
      (void)algo->step(t, s, 0);
      ADD_FAILURE() << name << " stepped from a foreign phase";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(name) + ": philosopher 0 in foreign phase"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Factory, KnowsAllNames) {
  for (const std::string& name : algorithm_names()) {
    EXPECT_EQ(make_algorithm(name)->name(), name);
  }
  EXPECT_THROW(make_algorithm("nope"), PreconditionError);
}

TEST(Factory, SymmetryAndDistributionFlags) {
  EXPECT_TRUE(make_algorithm("lr1")->symmetric());
  EXPECT_TRUE(make_algorithm("gdp2")->symmetric());
  EXPECT_FALSE(make_algorithm("ordered")->symmetric());
  EXPECT_FALSE(make_algorithm("colored")->symmetric());
  EXPECT_TRUE(make_algorithm("ordered")->fully_distributed());
  EXPECT_FALSE(make_algorithm("arbiter")->fully_distributed());
  EXPECT_FALSE(make_algorithm("ticket")->fully_distributed());
}

TEST(ThinkModes, CoinModeBranches) {
  const auto lr1 = make_algorithm("lr1", AlgoConfig{.think = ThinkMode::kCoin, .think_coin = 0.25});
  const auto t = graph::classic_ring(3);
  const SimState s = lr1->initial_state(t);
  const auto branches = lr1->step(t, s, 0);
  ASSERT_EQ(branches.size(), 2u);
  EXPECT_DOUBLE_EQ(branches[0].prob, 0.25);
  EXPECT_EQ(branches[0].event.kind, EventKind::kStartTrying);
  EXPECT_DOUBLE_EQ(branches[1].prob, 0.75);
  EXPECT_EQ(branches[1].event.kind, EventKind::kStillThinking);
}

// --- Step-semantics pins: every two-fork program, bit for bit. ---
//
// Each row fixes what one factory name does on one topology: the explored
// model (fingerprint and state count; the fingerprint covers the packed key
// layout that uses_books() / uses_numbers() choose) and the event stream of
// a seeded RandomUniform simulator run. colored runs on ring(4) because it
// needs an even ring. Exploration is capped at 200,000 states, which cuts
// the fig1a models of the randomized programs at a BFS level boundary (a
// capped model is a pure function of the cap).

struct StepPin {
  const char* algo;
  const char* topo;
  std::uint64_t fingerprint;
  std::size_t states;
  std::uint64_t events;
};

graph::Topology pin_topology(const std::string& name) {
  if (name == "ring(3)") return graph::classic_ring(3);
  if (name == "ring(4)") return graph::classic_ring(4);
  if (name == "parallel(3)") return graph::parallel_arcs(3);
  return graph::fig1a();
}

/// FNV-1a over every (step, philosopher, event) of a seeded simulator run.
std::uint64_t event_digest(const Algorithm& algo, const graph::Topology& t) {
  sim::RandomUniform sched;
  rng::Rng rng(2024);
  sim::EngineConfig cfg;
  cfg.max_steps = 4'000;
  cfg.record_trace = true;
  const auto result = sim::run(algo, t, sched, rng, cfg);
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const sim::TraceEntry& e : result.trace) {
    mix(e.step);
    mix(static_cast<std::uint64_t>(e.phil));
    mix(static_cast<std::uint64_t>(e.event.kind));
    mix(static_cast<std::uint64_t>(e.event.side));
    mix(static_cast<std::uint64_t>(e.event.fork));
    mix(static_cast<std::uint64_t>(e.event.value));
  }
  return h;
}

TEST(StepPins, BitIdenticalToRecordedTable) {
  const StepPin pins[] = {
      {"lr1", "ring(3)", 0xadd2d3f65b48732full, 776, 0xecc1032c729ef7f2ull},
      {"lr1", "parallel(3)", 0x3e0cc1dc21e86265ull, 684, 0xea540db649e81c78ull},
      {"lr1", "fig1a", 0x7a6a4f31c25a41d7ull, 207660, 0xc4f791ebff6c6cccull},
      {"lr2", "ring(3)", 0x6e8e3e2b5740e9d4ull, 19009, 0x8bb7ba65ced3bc99ull},
      {"lr2", "parallel(3)", 0xe67fcb19d88d0959ull, 17186, 0xa6a8ac5c7331b26full},
      {"lr2", "fig1a", 0x66840b15dc4c3db5ull, 237023, 0x01f12a6a47687a09ull},
      {"gdp1", "ring(3)", 0x2ce2acee2daf8d84ull, 13492, 0xb3e21caa61f5e70aull},
      {"gdp1", "parallel(3)", 0x96dde30dfac9c7aaull, 738, 0x75d7b0fe18260aebull},
      {"gdp1", "fig1a", 0x80a8ddae11c26fb7ull, 286192, 0xd64109fa6769a536ull},
      {"gdp2", "ring(3)", 0x223da333c7ccf86aull, 169352, 0x477d93be7f104708ull},
      {"gdp2", "parallel(3)", 0x6ea785126699c0aeull, 6544, 0xcc36201b0df5b799ull},
      {"gdp2", "fig1a", 0x8fda3aa260743660ull, 230494, 0x20b46c159d1dcc6full},
      {"gdp2c", "ring(3)", 0x1e7aa2ea53e40c37ull, 166589, 0x9bb514672713af13ull},
      {"gdp2c", "parallel(3)", 0x11f2443741336118ull, 6544, 0x0c56c27260274ee7ull},
      {"gdp2c", "fig1a", 0xd21a824e1d89f53full, 230494, 0x542f0489f4d631a1ull},
      {"ordered", "ring(3)", 0xced9e1548ed05559ull, 206, 0x0c5715e471fce62dull},
      {"ordered", "parallel(3)", 0xdda7f260cd518762ull, 275, 0x2ef89a659c6366d0ull},
      {"ordered", "fig1a", 0xe68e2186535f11e0ull, 28425, 0xaa9a91bcd23b8a9eull},
      {"colored", "ring(4)", 0x4985f97c651699e2ull, 931, 0x3bbdcc68b6602325ull},
  };
  for (const StepPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.algo) + " on " + pin.topo);
    const auto algo = make_algorithm(pin.algo);
    const auto t = pin_topology(pin.topo);
    const auto model = mdp::store::explore(*algo, t, {}, {.threads = 2, .max_states = 200'000});
    EXPECT_EQ(model.fingerprint(), pin.fingerprint);
    EXPECT_EQ(model.num_states(), pin.states);
    EXPECT_EQ(event_digest(*algo, t), pin.events);
  }
}

// --- Cross-algorithm contract, parameterized over (algorithm, topology). ---

struct ContractCase {
  std::string algo;
  int topo;
};

graph::Topology contract_topology(int index) {
  switch (index) {
    case 0: return graph::classic_ring(4);
    case 1: return graph::classic_ring(6);
    case 2: return graph::fig1a();
    case 3: return graph::parallel_arcs(3);
    case 4: return graph::ring_with_pendant(3);
    case 5: return graph::theta(1, 2, 2);
    default: return graph::star(5);
  }
}

class AlgorithmContract : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(AlgorithmContract, BranchProbabilitiesSumToOne) {
  const auto [name, topo_idx] = GetParam();
  const auto t = contract_topology(topo_idx);
  const auto algo = make_algorithm(name);
  if (name == "colored") return;  // validated separately (even ring only)
  rng::Rng rng(404);
  sim::RandomUniform sched;
  sim::EngineConfig cfg;
  cfg.max_steps = 300;
  // Sample states along a run; at each, audit every philosopher's branches.
  SimState s = algo->initial_state(t);
  for (int step = 0; step < 200; ++step) {
    for (PhilId p = 0; p < t.num_phils(); ++p) {
      const auto branches = algo->step(t, s, p);
      ASSERT_FALSE(branches.empty());
      const double total = std::accumulate(
          branches.begin(), branches.end(), 0.0,
          [](double acc, const Branch& b) { return acc + b.prob; });
      ASSERT_NEAR(total, 1.0, 1e-9) << name << " @" << t.name() << " phil " << p;
      for (const Branch& b : branches) ASSERT_GT(b.prob, 0.0);
    }
    const PhilId p = rng.uniform_int(0, t.num_phils() - 1);
    s = sim::sample_branch(algo->step(t, s, p), rng).next;
  }
}

TEST_P(AlgorithmContract, InvariantsHoldAndFairRunsProgress) {
  const auto [name, topo_idx] = GetParam();
  const auto t = contract_topology(topo_idx);
  if (name == "colored") return;
  const auto algo = make_algorithm(name);
  sim::LongestWaiting sched;
  rng::Rng rng(777 + topo_idx);
  sim::EngineConfig cfg;
  cfg.max_steps = 60'000;
  cfg.check_invariants = true;
  const auto result = sim::run(*algo, t, sched, rng, cfg);
  EXPECT_TRUE(result.invariant_violation.empty()) << result.invariant_violation;
  if (name == "ticket" && topo_idx >= 2) {
    // Ticket may deadlock off the classic ring — that is experiment E9's
    // point; other algorithms must progress.
    return;
  }
  EXPECT_GT(result.total_meals, 0u) << name << " on " << t.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, AlgorithmContract,
    ::testing::Combine(::testing::Values("lr1", "lr2", "gdp1", "gdp2", "gdp2c", "ordered",
                                         "arbiter", "ticket"),
                       ::testing::Range(0, 7)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_t" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gdp::algos
