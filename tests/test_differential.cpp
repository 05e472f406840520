// Differential testing: the sampling engine against the exact MDP, and the
// packed state-key codec against the legacy byte encoding.
//
// On systems small enough to explore completely, every configuration a
// Monte-Carlo run visits must be a state the model checker enumerated —
// the two executions of the same step relation (sampled vs exhaustive)
// cannot disagree on reachability. And per the paper's deadlock-freedom
// claim (GDP and LR never hold-and-wait), no lr2/gdp1 campaign may ever
// report a deadlock under any scheduler.
//
// The codec guard: gdp::mdp::KeyCodec drops fields its layout proves
// constant, so it could in principle alias states the old byte-vector
// SimState::encode distinguishes. Cross-checking both encodings on every
// state live runs visit pins the packed keys to the reference encoding —
// equal bytes iff equal packed key, and decode() inverts exactly.
//
// The step guard: every algorithm has one step implementation, emitting
// into a sink over a caller-owned scratch state, and the vector-returning
// step() collects that same stream. On every reachable state the two forms
// must agree branch for branch whatever the scratch held before the call.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/exp/runner.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/witness.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"
#include "state_recorder.hpp"

namespace gdp {
namespace {

using testutil::StateRecorder;

void expect_visits_subset_of_model(const std::string& algo_name, const graph::Topology& t) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);

  // The reference model comes from the pool-backed explorer — the
  // campaign's sampled visits are checked against the same Model object the
  // verdicts certify (bit-identical at every thread count by contract).
  mdp::StateIndex index;
  const mdp::Model model = mdp::explore_indexed(*algo, t, index);
  ASSERT_FALSE(model.truncated()) << "model must be complete for the subset check";

  std::size_t visited_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::RandomUniform inner;
    StateRecorder recorder(inner);
    rng::Rng rng(seed);
    sim::EngineConfig cfg;
    cfg.max_steps = 4'000;
    const auto r = sim::run(*algo, t, recorder, rng, cfg);

    for (const sim::SimState& state : recorder.states()) {
      ASSERT_TRUE(index.find(state).has_value())
          << "engine visited a state the exhaustive exploration never reached";
    }
    EXPECT_TRUE(index.find(r.final_state).has_value());
    visited_total += recorder.visited().size();
  }
  // Sanity: the runs actually moved through a nontrivial state set.
  EXPECT_GT(visited_total, 10u);
}

TEST(Differential, EngineVisitsAreReachableInModel) {
  expect_visits_subset_of_model("gdp1", graph::classic_ring(3));
  expect_visits_subset_of_model("gdp1", graph::parallel_arcs(3));
  expect_visits_subset_of_model("lr1", graph::classic_ring(4));
  expect_visits_subset_of_model("lr2", graph::parallel_arcs(3));
  expect_visits_subset_of_model("gdp2", graph::classic_ring(3));
}

/// The codec can never silently drop a distinguishing field: on every state
/// a campaign of live runs visits, the packed key and the legacy bytes must
/// induce the same equality relation, and the stored key must decode back
/// to the exact configuration (which re-encodes to the same bytes).
void expect_codec_matches_legacy_encode(const std::string& algo_name, const graph::Topology& t) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  const mdp::KeyCodec codec(*algo, t);

  std::map<std::vector<std::uint8_t>, std::vector<std::uint64_t>> legacy_to_packed;
  std::set<std::vector<std::uint64_t>> packed_seen;

  std::size_t states_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Alternate benign and adversarial scheduling so the runs reach books
    // in every phase combination, not just the fair-path states.
    sim::RandomUniform uniform;
    sim::LongestWaiting longest;
    sim::Scheduler& inner = (seed % 2 == 0) ? static_cast<sim::Scheduler&>(uniform)
                                            : static_cast<sim::Scheduler&>(longest);
    StateRecorder recorder(inner);
    rng::Rng rng(seed * 77);
    sim::EngineConfig cfg;
    cfg.max_steps = 5'000;
    (void)sim::run(*algo, t, recorder, rng, cfg);

    for (const sim::SimState& state : recorder.states()) {
      std::vector<std::uint8_t> legacy;
      state.encode(legacy);
      std::vector<std::uint64_t> packed(codec.key_words());
      codec.encode(state, packed.data());

      // Same state bytes -> same packed key; new state bytes -> new key.
      const auto [it, inserted] = legacy_to_packed.emplace(legacy, packed);
      ASSERT_EQ(it->second, packed) << "equal legacy bytes, distinct packed keys";
      if (inserted) {
        ASSERT_TRUE(packed_seen.insert(packed).second)
            << "distinct legacy bytes collided in the packed encoding";
      }

      // decode() inverts exactly; the round-tripped state re-encodes to the
      // same legacy bytes.
      const sim::SimState decoded = codec.decode(packed.data());
      ASSERT_EQ(decoded, state);
      std::vector<std::uint8_t> legacy_again;
      decoded.encode(legacy_again);
      ASSERT_EQ(legacy_again, legacy);
    }
    states_total += recorder.states().size();
  }
  EXPECT_GT(states_total, 50u) << "campaign too short to exercise the codec";
}

TEST(Differential, KeyWordsMatchLegacyEncodeOnLr2Campaign) {
  expect_codec_matches_legacy_encode("lr2", graph::parallel_arcs(3));
  expect_codec_matches_legacy_encode("lr2", graph::classic_ring(4));
  expect_codec_matches_legacy_encode("lr2", graph::ring_with_chord(4));
}

TEST(Differential, KeyWordsMatchLegacyEncodeOnGdp2Campaign) {
  expect_codec_matches_legacy_encode("gdp2", graph::classic_ring(3));
  expect_codec_matches_legacy_encode("gdp2", graph::ring_with_pendant(3));
  expect_codec_matches_legacy_encode("gdp2c", graph::parallel_arcs(3));
}

TEST(Differential, KeyWordsMatchLegacyEncodeOnBaselines) {
  // The aux-word path (arbiter queue, ticket box) and the numberless
  // baselines go through the same guard.
  expect_codec_matches_legacy_encode("arbiter", graph::classic_ring(3));
  expect_codec_matches_legacy_encode("ticket", graph::classic_ring(3));
  expect_codec_matches_legacy_encode("ordered", graph::ring_with_chord(4));
}

/// One recorded branch of the sink form, copied out during the sink call.
struct Emitted {
  double prob;
  sim::StepEvent event;
  sim::SimState next;
};

void expect_event_eq(const sim::StepEvent& a, const sim::StepEvent& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.fork, b.fork);
  EXPECT_EQ(a.value, b.value);
}

/// Steps every philosopher of every reachable state (up to `cap`) through the
/// sink form with a scratch holding an unrelated decoded state, and with a
/// scratch of the wrong shape; each must emit exactly the branches the
/// collecting form returns, with `next` aliasing only the state or the
/// scratch.
void expect_sink_matches_collect(const std::string& algo_name, const graph::Topology& t,
                                 std::size_t cap) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  mdp::StateIndex index;
  (void)mdp::explore_indexed(*algo, t, index, {.threads = 2, .max_states = cap});
  const mdp::KeyCodec& codec = index.codec();
  const std::size_t states = index.size();

  sim::SimState wrong_shape;
  wrong_shape.forks.resize(static_cast<std::size_t>(t.num_forks()) + 2);
  wrong_shape.forks[0].use_rank.assign(70, 9);
  wrong_shape.forks[1].nr = 5;
  wrong_shape.forks[1].requests = ~std::uint64_t{0};
  wrong_shape.phils.resize(1);
  wrong_shape.phils[0].scratch = 3;
  wrong_shape.aux.assign(7, 1);

  std::vector<Emitted> emitted;
  const sim::SimState* state_ptr = nullptr;
  const sim::SimState* scratch_ptr = nullptr;
  algos::SinkFn record([&](double prob, const sim::StepEvent& event, const sim::SimState& next) {
    EXPECT_TRUE(&next == state_ptr || &next == scratch_ptr)
        << "next aliases neither the state nor the scratch";
    emitted.push_back(Emitted{prob, event, next});
  });

  sim::SimState state;
  sim::SimState scratch;
  for (mdp::StateId id = 0; id < states; ++id) {
    codec.decode(index.key(id), state);
    for (PhilId p = 0; p < t.num_phils(); ++p) {
      const std::vector<sim::Branch> collected = algo->step(t, state, p);
      // The collecting form steps through a fresh scratch; the sink form
      // here gets one dirtied by an unrelated state, then a misshapen one.
      for (int variant = 0; variant < 2; ++variant) {
        SCOPED_TRACE("state " + std::to_string(id) + ", philosopher " + std::to_string(p) +
                     (variant == 0 ? ", unrelated scratch" : ", misshapen scratch"));
        if (variant == 0) {
          const auto unrelated = static_cast<mdp::StateId>((id * std::size_t{7919} + 1) % states);
          codec.decode(index.key(unrelated), scratch);
        } else {
          scratch = wrong_shape;
        }
        emitted.clear();
        state_ptr = &state;
        scratch_ptr = &scratch;
        algo->step(t, state, p, scratch, record);
        ASSERT_EQ(emitted.size(), collected.size());
        for (std::size_t b = 0; b < collected.size(); ++b) {
          EXPECT_EQ(emitted[b].prob, collected[b].prob);
          expect_event_eq(emitted[b].event, collected[b].event);
          ASSERT_EQ(emitted[b].next, collected[b].next)
              << "branch " << b << ": " << sim::to_string(emitted[b].next, t) << " vs "
              << sim::to_string(collected[b].next, t);
        }
      }
    }
  }
}

TEST(Differential, SinkStepMatchesCollectedStepWithDirtyScratch) {
  // ring(3) and parallel(3) complete; fig1a capped at a level boundary.
  const std::pair<graph::Topology, std::size_t> topologies[] = {
      {graph::classic_ring(3), 2'000'000},
      {graph::parallel_arcs(3), 2'000'000},
      {graph::fig1a(), 20'000},
  };
  for (const std::string& name : algos::algorithm_names()) {
    const auto algo = algos::make_algorithm(name);
    int covered = 0;
    for (const auto& [t, cap] : topologies) {
      try {
        algo->validate(t);
      } catch (const PreconditionError&) {
        continue;  // colored runs only on even rings
      }
      expect_sink_matches_collect(name, t, cap);
      ++covered;
    }
    if (covered == 0) expect_sink_matches_collect(name, graph::classic_ring(4), 2'000'000);
  }
}

// The paper's deadlock-freedom claim, exercised through gdp::exp: GDP and
// LR philosophers never hold-and-wait, so no campaign cell may report a
// deadlock under any adversary — benign or malicious.
TEST(Differential, NoLr2OrGdp1CampaignEverDeadlocks) {
  exp::CampaignSpec spec;
  spec.name = "deadlock-freedom";
  spec.seed = 11;
  spec.trials = 4;
  spec.topologies = {graph::classic_ring(3), graph::classic_ring(5), graph::ring_with_chord(4),
                     graph::parallel_arcs(3), graph::fig1a()};
  spec.algorithms = {"lr2", "gdp1"};
  spec.schedulers = {exp::longest_waiting(), exp::uniform(), exp::eat_avoider()};
  spec.engine.max_steps = 10'000;
  const auto result = exp::run_campaign(spec, 4);

  ASSERT_EQ(result.cells.size(), 30u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.deadlocks(), 0u) << cell.label();
    // Under the benign schedulers progress is also certain (Theorem 3 for
    // GDP; LR2 needs malice to fail) — the eat-avoider cells only assert
    // deadlock-freedom, since starving LR2 there is the paper's point.
    const bool benign = cell.cell().scheduler < 2;
    if (benign) EXPECT_EQ(cell.progressed(), cell.trials()) << cell.label();
  }
}

}  // namespace
}  // namespace gdp
