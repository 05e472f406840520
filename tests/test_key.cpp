// Property tests for the packed fixed-width state-key codec
// (gdp/mdp/key.hpp): encode/decode round-trips over randomized reachable
// states, injectivity against the reference byte encoding, exact layout
// widths for the topology families the benches run, and the degree-cap
// regression for the guest-book fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/common/grow_array.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/witness.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"
#include "gdp/sim/state.hpp"
#include "state_recorder.hpp"

namespace gdp::mdp {
namespace {

/// `state`'s key as a vector of its key_words() words.
std::vector<std::uint64_t> key_of(const KeyCodec& codec, const sim::SimState& state) {
  std::vector<std::uint64_t> key(codec.key_words());
  codec.encode(state, key.data());
  return key;
}

/// Collects distinct reachable configurations by driving the live engine
/// with seeded Rng streams under benign and adversarial schedulers.
std::vector<sim::SimState> reachable_sample(const algos::Algorithm& algo,
                                            const graph::Topology& t, std::uint64_t seed_base,
                                            int runs = 6, std::uint64_t steps = 4'000) {
  std::vector<sim::SimState> all;
  std::set<std::vector<std::uint8_t>> seen;
  std::vector<std::uint8_t> bytes;
  for (int run = 0; run < runs; ++run) {
    sim::RandomUniform uniform;
    sim::LongestWaiting longest;
    sim::Scheduler& inner = (run % 2 == 0) ? static_cast<sim::Scheduler&>(uniform)
                                           : static_cast<sim::Scheduler&>(longest);
    testutil::StateRecorder collector(inner);
    rng::Rng rng(seed_base + static_cast<std::uint64_t>(run));
    sim::EngineConfig cfg;
    cfg.max_steps = steps;
    (void)sim::run(algo, t, collector, rng, cfg);
    for (const sim::SimState& s : collector.states()) {
      s.encode(bytes);
      if (seen.insert(bytes).second) all.push_back(s);
    }
  }
  return all;
}

// --- Round-trip + injectivity over topologies x algorithms. ---

void expect_round_trip_and_injective(const std::string& algo_name, const graph::Topology& t,
                                     std::uint64_t seed_base) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  const KeyCodec codec(*algo, t);
  ASSERT_TRUE(codec.valid());

  const auto states = reachable_sample(*algo, t, seed_base);
  ASSERT_GT(states.size(), 20u) << "sample too small to mean anything";

  // Injectivity through a map of decoded states: distinct SimStates must
  // produce distinct keys, and each stored key must decode back to exactly
  // the SimState that produced it.
  std::map<std::vector<std::uint64_t>, sim::SimState> decoded_by_words;
  for (const sim::SimState& state : states) {
    const std::vector<std::uint64_t> key = key_of(codec, state);

    const sim::SimState decoded = codec.decode(key.data());
    ASSERT_EQ(decoded, state) << "decode is not the inverse of encode";
    // Re-encoding the decoded state reproduces the key bit for bit.
    ASSERT_EQ(key_of(codec, decoded), key);

    const auto [it, inserted] = decoded_by_words.emplace(key, decoded);
    if (!inserted) {
      ASSERT_EQ(it->second, state) << "two distinct states packed to the same key";
    }
  }
  EXPECT_EQ(decoded_by_words.size(), states.size());
}

TEST(KeyCodec, RoundTripRing) {
  expect_round_trip_and_injective("lr1", graph::classic_ring(3), 100);
  expect_round_trip_and_injective("lr2", graph::classic_ring(4), 200);
  expect_round_trip_and_injective("gdp1", graph::classic_ring(5), 300);
  expect_round_trip_and_injective("gdp2", graph::classic_ring(3), 400);
}

TEST(KeyCodec, RoundTripChordAndPendant) {
  expect_round_trip_and_injective("lr1", graph::ring_with_chord(4), 500);
  expect_round_trip_and_injective("lr2", graph::ring_with_chord(5), 600);
  expect_round_trip_and_injective("gdp1", graph::ring_with_pendant(3), 700);
  expect_round_trip_and_injective("gdp2", graph::ring_with_chord(4), 800);
}

TEST(KeyCodec, RoundTripSharedForkFamilies) {
  // parallel_arcs / star / fig1a: a fork shared by many philosophers — the
  // closest the two-fork Topology API gets to a hyperedge, and the families
  // where the guest-book fields dominate the layout.
  expect_round_trip_and_injective("lr2", graph::parallel_arcs(4), 900);
  expect_round_trip_and_injective("gdp2", graph::parallel_arcs(3), 1'000);
  expect_round_trip_and_injective("lr2", graph::star(5), 1'100);
  expect_round_trip_and_injective("lr1", graph::fig1a(), 1'200);
}

TEST(KeyCodec, RoundTripBaselinesWithAuxWords) {
  expect_round_trip_and_injective("arbiter", graph::classic_ring(3), 1'300);
  expect_round_trip_and_injective("ticket", graph::classic_ring(4), 1'400);
  expect_round_trip_and_injective("ordered", graph::ring_with_chord(4), 1'500);
}

// decode into a reused state overwrites every field: one state, dirtied by
// every earlier key and by models of other shapes (books, numbers, aux
// words, other sizes), decodes each key of each model to exactly what a
// fresh decode yields.
TEST(KeyCodec, DecodeIntoDirtyStateMatchesFreshDecode) {
  sim::SimState dirty;
  dirty.forks.resize(9);
  dirty.forks[0].use_rank.assign(5, 3);
  dirty.forks[1].requests = 0b101;
  dirty.forks[2].nr = 7;
  dirty.phils.resize(2);
  dirty.phils[0].scratch = 11;
  dirty.aux.assign(4, 2);
  const std::pair<const char*, graph::Topology> cases[] = {
      {"lr2", graph::parallel_arcs(3)},  {"gdp1", graph::classic_ring(3)},
      {"arbiter", graph::classic_ring(3)}, {"gdp2", graph::ring_with_pendant(3)},
      {"ticket", graph::classic_ring(4)},  {"lr1", graph::fig1a()},
  };
  for (const auto& [name, t] : cases) {
    SCOPED_TRACE(std::string(name) + " on " + t.name());
    const auto algo = algos::make_algorithm(name);
    StateIndex index;
    (void)explore_indexed(*algo, t, index, {.threads = 1, .max_states = 20'000});
    const KeyCodec& codec = index.codec();
    for (StateId id = 0; id < index.size(); ++id) {
      codec.decode(index.key(id), dirty);
      ASSERT_EQ(dirty, codec.decode(index.key(id))) << "state " << id;
    }
  }
}

// --- Layout-width pins: the exact bit budget per family. ---

TEST(KeyCodec, LayoutWidthsRing) {
  // ring(n) with lr1: no books, no numbers, no aux — per fork just the
  // holder field, per philosopher phase + side.
  struct Case {
    int n;
    unsigned holder_bits;
    std::size_t key_bits;
  };
  // holder stores [0, n] (0 = free): bit_width(n) bits.
  for (const Case c : {Case{3, 2, 3 * 2 + 3 * 4},      // 18 bits
                       Case{5, 3, 5 * 3 + 5 * 4},      // 35 bits
                       Case{64, 7, 64 * 7 + 64 * 4}}) {  // 704 bits
    const auto t = graph::classic_ring(c.n);
    const KeyCodec codec(*algos::make_algorithm("lr1"), t);
    SCOPED_TRACE(t.name());
    EXPECT_FALSE(codec.books());
    EXPECT_FALSE(codec.numbers());
    EXPECT_EQ(codec.aux_words(), 0);
    EXPECT_EQ(codec.holder_bits(), c.holder_bits);
    EXPECT_EQ(codec.nr_bits(), 0u);
    EXPECT_EQ(codec.key_bits(), c.key_bits);
    EXPECT_EQ(codec.key_words(), (c.key_bits + 63) / 64);
  }

  // gdp2 on the same rings adds nr (bit_width(m), m = k) and the books:
  // per fork degree 2 -> 2 request bits + 2 ranks x 2 bits.
  for (const int n : {3, 5, 64}) {
    const auto t = graph::classic_ring(n);
    const KeyCodec codec(*algos::make_algorithm("gdp2"), t);
    SCOPED_TRACE(t.name());
    EXPECT_TRUE(codec.books());
    EXPECT_TRUE(codec.numbers());
    const auto nu = static_cast<unsigned>(n);
    const unsigned holder = std::bit_width(nu);
    const unsigned nr = std::bit_width(nu);  // m = num_forks = n on a ring
    EXPECT_EQ(codec.holder_bits(), holder);
    EXPECT_EQ(codec.nr_bits(), nr);
    EXPECT_EQ(codec.rank_bits(0), 2u);
    EXPECT_EQ(codec.request_bits(0), 2u);
    EXPECT_EQ(codec.key_bits(),
              static_cast<std::size_t>(n) * (holder + nr + 2 + 2 * 2) +
                  static_cast<std::size_t>(n) * 4);
  }
}

TEST(KeyCodec, LayoutWidthsChord) {
  // ring_with_chord(k): k + 1 philosophers over k forks; forks 0 and k/2
  // have degree 3 (the Theorem 1 premise), the rest degree 2.
  for (const int k : {4, 6, 64}) {
    const auto t = graph::ring_with_chord(k);
    const KeyCodec codec(*algos::make_algorithm("lr2"), t);
    SCOPED_TRACE(t.name());
    const auto phils = static_cast<unsigned>(k + 1);
    const unsigned holder = std::bit_width(phils);
    std::size_t fork_bits = 0;
    for (ForkId f = 0; f < t.num_forks(); ++f) {
      const auto deg = static_cast<unsigned>(t.degree(f));
      EXPECT_EQ(codec.request_bits(f), deg);
      EXPECT_EQ(codec.rank_bits(f), static_cast<unsigned>(std::bit_width(deg)));
      fork_bits += holder + deg + deg * static_cast<unsigned>(std::bit_width(deg));
    }
    EXPECT_EQ(codec.key_bits(), fork_bits + phils * 4);
  }
}

TEST(KeyCodec, LayoutWidthsSharedFork) {
  // star(n): the center fork is shared by all n philosophers, leaves have
  // degree 1 — the widest books layout the degree cap admits at n = 64.
  for (const int n : {3, 5, 64}) {
    const auto t = graph::star(n);
    const KeyCodec codec(*algos::make_algorithm("lr2"), t);
    SCOPED_TRACE(t.name());
    const auto nu = static_cast<unsigned>(n);
    const unsigned holder = std::bit_width(nu);
    const unsigned center_rank = std::bit_width(nu);
    // center: holder + n request bits + n ranks; each leaf: holder + 1 + 1.
    const std::size_t expect_bits = (holder + nu + nu * center_rank) +
                                    nu * (holder + 1 + 1) + nu * 4;
    EXPECT_EQ(codec.request_bits(0), nu);
    EXPECT_EQ(codec.rank_bits(0), center_rank);
    EXPECT_EQ(codec.key_bits(), expect_bits);
  }
}

// --- The memory claim the refactor was for. ---

TEST(KeyCodec, KeyWordsAtLeastHalveLr2Parallel4Keys) {
  const auto t = graph::parallel_arcs(4);
  const KeyCodec codec(*algos::make_algorithm("lr2"), t);
  // Legacy: 2 forks x (12 + 4 ranks) + 4 phils x 4 = 48 bytes (plus the
  // byte-vector's own heap block and capacity). Packed: one 8-byte word.
  EXPECT_EQ(codec.legacy_key_bytes(), 48u);
  EXPECT_EQ(codec.key_bytes(), 8u);
  EXPECT_GE(codec.legacy_key_bytes(), 2 * codec.key_bytes());
}

// --- Degree-cap regression (the legacy encode size byte). ---

TEST(KeyCodec, BooksAtTheDegreeCap64) {
  // star(64): center fork degree 64 — the books-enabled cap. The guest
  // book must survive a full round of uses through both encodings.
  const auto t = graph::star(64);
  const auto lr2 = algos::make_algorithm("lr2");
  const KeyCodec codec(*lr2, t);

  sim::SimState state = lr2->initial_state(t);
  for (PhilId p = 0; p < t.num_phils(); ++p) {
    sim::mark_used(state, t, 0, p);
    state.fork(0).requests |= std::uint64_t{1} << t.slot_of(0, p);
  }
  // Every rank distinct, all 64 request bits set: the widest center field.
  EXPECT_EQ(codec.decode(key_of(codec, state).data()), state);

  std::vector<std::uint8_t> legacy;
  state.encode(legacy);  // size byte 64: fine
  EXPECT_EQ(legacy.size(), codec.legacy_key_bytes());
}

// (The legacy-encode size-byte regression lives in test_state.cpp, next to
// the other SimState::encode tests.)

TEST(KeyCodec, RefusesOutOfContractFields) {
  const auto t = graph::classic_ring(3);
  const auto lr1 = algos::make_algorithm("lr1");
  const KeyCodec codec(*lr1, t);

  // A scratch word has no field in the layout: encode must refuse rather
  // than alias.
  sim::SimState state = lr1->initial_state(t);
  state.phil(0).scratch = 1;
  EXPECT_THROW(key_of(codec, state), PreconditionError);

  // Aux words outside [-1, n-1] are outside the init_aux contract.
  const auto ticket = algos::make_algorithm("ticket");
  const KeyCodec ticket_codec(*ticket, t);
  sim::SimState boxed = ticket->initial_state(t);
  boxed.aux[0] = t.num_phils();
  EXPECT_THROW(key_of(ticket_codec, boxed), PreconditionError);

  // Decoding with an unset codec is refused.
  const std::uint64_t word = 0;
  EXPECT_THROW(KeyCodec().decode(&word), PreconditionError);
}

TEST(KeyCodec, RefusesNumberingRangeBeyond16Bits) {
  // nr_max_ is 16-bit storage: an effective m > 65535 would truncate,
  // shrink nr_bits_, and intern DISTINCT states as one key (silent
  // collisions). Building a codec for such a configuration must refuse —
  // both effective_m's own range guard and the codec's defense-in-depth
  // check throw, and either way the layout is never constructed.
  const auto t = graph::classic_ring(3);
  algos::AlgoConfig config;
  config.m = 70'000;  // > 0xffff, >= num_forks so validate() accepts it
  const auto gdp1 = algos::make_algorithm("gdp1", config);
  EXPECT_THROW(KeyCodec(*gdp1, t), PreconditionError);

  // The boundary value still fits: 0xffff must stay representable.
  algos::AlgoConfig edge;
  edge.m = 0xffff;
  const auto gdp1_edge = algos::make_algorithm("gdp1", edge);
  const KeyCodec codec_edge(*gdp1_edge, t);
  EXPECT_EQ(codec_edge.nr_bits(), 16u);
}

// --- StateIndex: the explorers' flat-keys, sharded-slots state table. ---

/// A StateIndex over `states` in the given order (ids 0, 1, ...), built
/// through restore() from their flat keys.
StateIndex index_of(const KeyCodec& codec, const std::vector<sim::SimState>& states) {
  common::GrowArray<std::uint64_t> flat;
  for (const sim::SimState& state : states) codec.encode(state, flat.grow(codec.key_words()));
  StateIndex index;
  index.restore(codec, std::move(flat));
  return index;
}

TEST(StateIndex, FindsEveryStoredKeyAndNoAbsentOne) {
  const auto t = graph::classic_ring(3);
  const auto algo = algos::make_algorithm("gdp2");
  const KeyCodec codec(*algo, t);
  const auto states = reachable_sample(*algo, t, 7'000);
  ASSERT_GT(states.size(), 20u);
  const std::vector<sim::SimState> stored(states.begin(), states.end() - 1);
  const StateIndex index = index_of(codec, stored);
  ASSERT_EQ(index.size(), stored.size());
  EXPECT_EQ(index.key_bytes(), stored.size() * codec.key_bytes());
  EXPECT_GT(index.slot_bytes(), 0u);

  for (std::size_t id = 0; id < stored.size(); ++id) {
    const std::optional<StateId> found = index.find(stored[id]);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, id);
    EXPECT_TRUE(index.find(key_of(codec, stored[id]).data()) == found);
  }
  // Absent: the held-back state, and anything in an empty index.
  const sim::SimState& absent = states.back();
  EXPECT_FALSE(index.find(absent).has_value());
  EXPECT_FALSE(index.find(key_of(codec, absent).data()).has_value());
  StateIndex empty;
  empty.reset(codec);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.find(stored.front()).has_value());
}

TEST(StateIndex, IteratesInIdOrder) {
  const auto t = graph::parallel_arcs(3);
  const auto algo = algos::make_algorithm("lr2");
  const KeyCodec codec(*algo, t);
  const auto states = reachable_sample(*algo, t, 8'000);
  const StateIndex index = index_of(codec, states);
  ASSERT_EQ(index.size(), states.size());
  const std::size_t kw = index.key_words();
  ASSERT_EQ(index.flat_keys().size(), states.size() * kw);
  for (StateId id = 0; id < index.size(); ++id) {
    const std::vector<std::uint64_t> key = key_of(codec, states[id]);
    EXPECT_TRUE(std::equal(key.begin(), key.end(), index.key(id))) << "state " << id;
    EXPECT_EQ(index.key(id), index.flat_keys().data() + id * kw);
    EXPECT_EQ(codec.decode(index.key(id)), states[id]);
  }
}

TEST(StateIndex, RestoreRefusesDuplicateKeys) {
  const auto t = graph::classic_ring(3);
  const auto algo = algos::make_algorithm("lr1");
  const KeyCodec codec(*algo, t);
  auto states = reachable_sample(*algo, t, 9'000);
  ASSERT_GT(states.size(), 3u);
  states.push_back(states[2]);
  EXPECT_THROW(index_of(codec, states), PreconditionError);
  // A word count that is not whole keys is refused too.
  const KeyCodec wide(*algos::make_algorithm("gdp2"), graph::star(4));
  ASSERT_GT(wide.key_words(), 1u);
  const std::vector<std::uint64_t> zeros(wide.key_words() + 1, 0);
  StateIndex index;
  EXPECT_THROW(index.restore(wide, common::GrowArray<std::uint64_t>(zeros.data(), zeros.size())),
               PreconditionError);
}

}  // namespace
}  // namespace gdp::mdp
