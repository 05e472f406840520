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
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

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
      ASSERT_TRUE(index.count(state))
          << "engine visited a state the exhaustive exploration never reached";
    }
    EXPECT_TRUE(index.count(r.final_state));
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

  std::map<std::vector<std::uint8_t>, mdp::PackedKey> legacy_to_packed;
  std::set<std::vector<std::uint8_t>> packed_words_seen;

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
      const mdp::PackedKey packed = codec.encode(state);

      // Same state bytes -> same packed key; new state bytes -> new key.
      const auto [it, inserted] = legacy_to_packed.emplace(legacy, packed);
      ASSERT_TRUE(it->second == packed) << "equal legacy bytes, distinct packed keys";
      if (inserted) {
        const std::vector<std::uint8_t> words(
            reinterpret_cast<const std::uint8_t*>(packed.data()),
            reinterpret_cast<const std::uint8_t*>(packed.data() + packed.words()));
        ASSERT_TRUE(packed_words_seen.insert(words).second)
            << "distinct legacy bytes collided in the packed encoding";
      }

      // decode() inverts exactly; the round-tripped state re-encodes to the
      // same legacy bytes.
      const sim::SimState decoded = codec.decode(packed);
      ASSERT_EQ(decoded, state);
      std::vector<std::uint8_t> legacy_again;
      decoded.encode(legacy_again);
      ASSERT_EQ(legacy_again, legacy);
    }
    states_total += recorder.states().size();
  }
  EXPECT_GT(states_total, 50u) << "campaign too short to exercise the codec";
}

TEST(Differential, PackedKeysMatchLegacyEncodeOnLr2Campaign) {
  expect_codec_matches_legacy_encode("lr2", graph::parallel_arcs(3));
  expect_codec_matches_legacy_encode("lr2", graph::classic_ring(4));
  expect_codec_matches_legacy_encode("lr2", graph::ring_with_chord(4));
}

TEST(Differential, PackedKeysMatchLegacyEncodeOnGdp2Campaign) {
  expect_codec_matches_legacy_encode("gdp2", graph::classic_ring(3));
  expect_codec_matches_legacy_encode("gdp2", graph::ring_with_pendant(3));
  expect_codec_matches_legacy_encode("gdp2c", graph::parallel_arcs(3));
}

TEST(Differential, PackedKeysMatchLegacyEncodeOnBaselines) {
  // The aux-word path (arbiter queue, ticket box) and the numberless
  // baselines go through the same guard.
  expect_codec_matches_legacy_encode("arbiter", graph::classic_ring(3));
  expect_codec_matches_legacy_encode("ticket", graph::classic_ring(3));
  expect_codec_matches_legacy_encode("ordered", graph::ring_with_chord(4));
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
