// The explorer against an independent oracle: a reference explorer that
// interns sequentially through a std::unordered_map, in (state,
// philosopher, branch) order — the FIFO epilogue the level explorer used
// before its intern became phase-concurrent. mdp::explore_indexed must
// reproduce the reference Model byte for byte and its StateIndex id for id,
// at threads {1, 2, 4, hw}: on levels that intern inline, levels that
// intern in parallel, capped runs, wide (heap-spilled) keys, and a
// store::resume round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/mdp/witness.hpp"
#include "gdp/sim/state.hpp"
#include "gdp/sim/step.hpp"

namespace gdp::mdp {
namespace {

/// Levels with at least this many successors intern on the pool (the
/// explorer's file-local cutoff); the cases below pin which side they hit.
constexpr std::size_t kParallelInternMin = 65'536;

struct Reference {
  Model model;
  std::vector<PackedKey> keys;          // id -> key
  std::size_t max_level_successors = 0;  // widest level, in successors
};

struct KeyHash {
  std::size_t operator()(const PackedKey& key) const {
    return static_cast<std::size_t>(hash_key_words(key.data(), key.words()));
  }
};

/// Level-synchronous BFS with the same level-boundary cap as mdp::explore.
/// Each level expands in id order and its successors intern in (state,
/// philosopher, branch) order through an unordered_map, so new states take
/// FIFO ids.
Reference reference_explore(const algos::Algorithm& algo, const graph::Topology& t,
                            std::size_t max_states) {
  const KeyCodec codec(algo, t);
  const int n = t.num_phils();
  std::unordered_map<PackedKey, StateId, KeyHash> index;
  Reference ref{Model{}, {}, 0};
  std::vector<std::uint64_t> eaters;
  std::vector<std::uint64_t> offsets{0};
  std::vector<Outcome> outcomes;
  const auto intern = [&](const sim::SimState& state) {
    const PackedKey key = codec.encode(state);
    const auto [it, inserted] = index.try_emplace(key, static_cast<StateId>(ref.keys.size()));
    if (inserted) {
      ref.keys.push_back(key);
      eaters.push_back(sim::eater_mask(state));
    }
    return it->second;
  };

  intern(algo.initial_state(t));
  std::size_t expanded = 0;
  bool truncated = false;
  while (expanded < ref.keys.size()) {
    if (ref.keys.size() >= max_states) {
      truncated = true;
      break;
    }
    const std::size_t level_end = ref.keys.size();
    const std::size_t outcomes_before = outcomes.size();
    for (std::size_t s = expanded; s < level_end; ++s) {
      const sim::SimState state = codec.decode(ref.keys[s]);
      for (PhilId p = 0; p < n; ++p) {
        for (const sim::Branch& b : algo.step(t, state, p)) {
          outcomes.push_back(Outcome{static_cast<float>(b.prob), intern(b.next)});
        }
        offsets.push_back(outcomes.size());
      }
    }
    ref.max_level_successors =
        std::max(ref.max_level_successors, outcomes.size() - outcomes_before);
    expanded = level_end;
  }

  const std::size_t states = ref.keys.size();
  offsets.resize(states * static_cast<std::size_t>(n) + 1, outcomes.size());
  std::vector<bool> frontier(states, false);
  for (std::size_t s = expanded; s < states; ++s) frontier[s] = true;
  ref.model = Model::build(n, std::move(offsets), std::move(outcomes), std::move(eaters),
                           std::move(frontier), truncated);
  return ref;
}

std::vector<int> thread_counts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> counts{1, 2, 4};
  if (hw > 4) counts.push_back(hw);
  return counts;
}

/// Field-by-field model equality through the read API (floats by memcmp).
template <class ModelT>
void expect_model_matches(const Model& ref, const ModelT& model) {
  ASSERT_EQ(ref.num_states(), model.num_states());
  ASSERT_EQ(ref.num_phils(), model.num_phils());
  EXPECT_EQ(ref.truncated(), model.truncated());
  for (StateId s = 0; s < ref.num_states(); ++s) {
    ASSERT_EQ(ref.eaters(s), model.eaters(s)) << "state " << s;
    ASSERT_EQ(ref.frontier(s), model.frontier(s)) << "state " << s;
    for (int p = 0; p < ref.num_phils(); ++p) {
      const auto [rb, re] = ref.row(s, p);
      const auto [mb, me] = model.row(s, p);
      ASSERT_EQ(re - rb, me - mb) << "row (" << s << ", " << p << ")";
      for (const Outcome *ro = rb, *mo = mb; ro != re; ++ro, ++mo) {
        ASSERT_EQ(ro->next, mo->next) << "row (" << s << ", " << p << ")";
        ASSERT_EQ(std::memcmp(&ro->prob, &mo->prob, sizeof(float)), 0)
            << "row (" << s << ", " << p << ")";
      }
    }
  }
}

/// The StateIndex holds exactly the reference keys under the reference ids.
void expect_index_matches(const Reference& ref, const StateIndex& index) {
  ASSERT_EQ(index.size(), ref.keys.size());
  const std::size_t kw = index.key_words();
  for (StateId id = 0; id < ref.keys.size(); ++id) {
    const PackedKey& key = ref.keys[id];
    ASSERT_EQ(key.words(), kw);
    ASSERT_TRUE(std::equal(key.data(), key.data() + kw, index.key(id))) << "key of id " << id;
    const std::optional<StateId> found = index.find(key);
    ASSERT_TRUE(found.has_value()) << "id " << id;
    ASSERT_EQ(*found, id);
  }
}

/// explore_indexed at every thread count against the reference.
Reference expect_matches_oracle(const std::string& algo_name, const graph::Topology& t,
                                std::size_t max_states) {
  SCOPED_TRACE(algo_name + " on " + t.name() + " cap " + std::to_string(max_states));
  const auto algo = algos::make_algorithm(algo_name);
  Reference ref = reference_explore(*algo, t, max_states);
  for (const int threads : thread_counts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StateIndex index;
    const Model model =
        explore_indexed(*algo, t, index, {.threads = threads, .max_states = max_states});
    expect_model_matches(ref.model, model);
    expect_index_matches(ref, index);
  }
  return ref;
}

TEST(ExploreOracle, LevelsBelowTheInlineCutoff) {
  const Reference ref = expect_matches_oracle("lr2", graph::classic_ring(3), 2'000'000);
  EXPECT_FALSE(ref.model.truncated());
  EXPECT_LT(ref.max_level_successors, kParallelInternMin);
}

TEST(ExploreOracle, LevelsCrossingTheInlineCutoff) {
  const Reference ref = expect_matches_oracle("lr2", graph::parallel_arcs(4), 2'000'000);
  EXPECT_FALSE(ref.model.truncated());
  EXPECT_GE(ref.max_level_successors, kParallelInternMin);
}

TEST(ExploreOracle, CappedRun) {
  const Reference ref = expect_matches_oracle("lr2", graph::parallel_arcs(4), 150'000);
  EXPECT_TRUE(ref.model.truncated());
  EXPECT_GE(ref.max_level_successors, kParallelInternMin);
}

TEST(ExploreOracle, WideBooksKeys) {
  const auto t = graph::star(10);
  ASSERT_GT(KeyCodec(*algos::make_algorithm("gdp2"), t).key_words(), PackedKey::kInlineWords);
  const Reference ref = expect_matches_oracle("gdp2", t, 30'000);
  EXPECT_TRUE(ref.model.truncated());
  EXPECT_GE(ref.max_level_successors, kParallelInternMin);
}

TEST(ExploreOracle, StoreResumeRoundTrip) {
  // Explore to a 60k cap, resume to a 300k cap: the resumed levels intern
  // in parallel, on a table rebuilt from the checkpoint's keys.
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::parallel_arcs(4);
  const Reference ref = reference_explore(*algo, t, 300'000);
  EXPECT_GE(ref.max_level_successors, kParallelInternMin);
  for (const int threads : thread_counts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const store::ChunkedModel capped =
        store::explore(*algo, t, {}, {.threads = threads, .max_states = 60'000});
    ASSERT_TRUE(capped.truncated());
    const store::ChunkedModel resumed =
        store::resume(*algo, t, capped, {}, {.threads = threads, .max_states = 300'000});
    expect_model_matches(ref.model, resumed);
    const std::vector<std::uint64_t> keys = resumed.flat_keys();
    const std::size_t kw = resumed.codec().key_words();
    ASSERT_EQ(keys.size(), ref.keys.size() * kw);
    for (std::size_t id = 0; id < ref.keys.size(); ++id) {
      ASSERT_TRUE(std::equal(ref.keys[id].data(), ref.keys[id].data() + kw, keys.data() + id * kw))
          << "key of id " << id;
    }
  }
}

}  // namespace
}  // namespace gdp::mdp
