// The explorer against an independent oracle: a reference explorer that
// interns sequentially through a std::unordered_map, in (state,
// philosopher, branch) order — the FIFO epilogue the level explorer used
// before its intern became phase-concurrent. mdp::explore_indexed must
// reproduce the reference Model byte for byte and its StateIndex id for id,
// at threads {1, 2, 4, hw}: on levels that intern inline, levels that
// intern in parallel, capped runs, wide (heap-spilled) keys, and a
// store::resume round trip. A synthetic program with chosen level sizes
// (1, 63, 64, 65 and 130 states) pins the edges of the explorer's 64-state
// expansion blocks at threads {1, 2, 3, 4}, including a resume from a
// checkpoint whose expanded prefix ends inside a block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
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

/// A synthetic program whose BFS levels have exactly the sizes in
/// `levels` (levels[0] == 1). State (L, i) — the i-th state of level L —
/// lives in the aux words as base-4 digits. Philosopher p's branch b of
/// (L, i) leads to (L + 1, (i * n * fan + p * fan + b) mod levels[L + 1])
/// with probability 1 / fan, so level L + 1 is covered whenever
/// levels[L] * n * fan >= levels[L + 1]; states of the last level loop.
class Ladder final : public algos::Algorithm {
 public:
  Ladder(std::vector<std::size_t> levels, int fan)
      : Algorithm(algos::AlgoConfig{}), levels_(std::move(levels)), fan_(fan) {}

  std::string name() const override { return "ladder"; }

  void step(const graph::Topology& t, const sim::SimState& state, PhilId p,
            sim::SimState& scratch, algos::BranchSink& sink) const override {
    std::size_t level = 0, index = 0;
    for (int d = kDigits - 1; d >= 0; --d) {
      level = level * 4 + static_cast<std::size_t>(state.aux[static_cast<std::size_t>(d)] + 1);
      index = index * 4 +
              static_cast<std::size_t>(state.aux[static_cast<std::size_t>(kDigits + d)] + 1);
    }
    if (level + 1 == levels_.size()) {
      sink(1.0, sim::StepEvent{}, state);
      return;
    }
    const std::size_t n = static_cast<std::size_t>(t.num_phils());
    const std::size_t fan = static_cast<std::size_t>(fan_);
    for (std::size_t b = 0; b < fan; ++b) {
      scratch = state;
      put(scratch, level + 1,
          (index * n * fan + static_cast<std::size_t>(p) * fan + b) % levels_[level + 1]);
      sink(1.0 / static_cast<double>(fan), sim::StepEvent{}, scratch);
    }
  }

  std::size_t num_states() const {
    std::size_t total = 0;
    for (const std::size_t l : levels_) total += l;
    return total;
  }

 protected:
  void init_aux(sim::SimState& s, const graph::Topology& t) const override {
    EXPECT_EQ(t.num_phils(), 3) << "base-4 digits need aux values in [-1, 2]";
    s.aux.assign(2 * kDigits, 0);
    put(s, 0, 0);
  }

 private:
  static constexpr int kDigits = 4;  // per coordinate: levels and indices below 256

  static void put(sim::SimState& s, std::size_t level, std::size_t index) {
    for (int d = 0; d < kDigits; ++d) {
      const unsigned shift = 2 * static_cast<unsigned>(d);
      s.aux[static_cast<std::size_t>(d)] = static_cast<std::int32_t>((level >> shift) & 3) - 1;
      s.aux[static_cast<std::size_t>(kDigits + d)] =
          static_cast<std::int32_t>((index >> shift) & 3) - 1;
    }
  }

  std::vector<std::size_t> levels_;
  int fan_;
};

/// Levels straddling the 64-state expansion block, one of them two blocks
/// and a remainder wide. Each narrower level follows a wider one, so a
/// block the level does not own still holds the previous level's data.
const std::vector<std::size_t> kBlockEdgeLevels{1, 65, 64, 63, 130, 1};

/// The ladder's explore_indexed at threads {1, 2, 3, 4} against the
/// reference.
Reference expect_ladder_matches_oracle(const Ladder& ladder, const graph::Topology& t) {
  Reference ref = reference_explore(ladder, t, 2'000'000);
  EXPECT_FALSE(ref.model.truncated());
  EXPECT_EQ(ref.model.num_states(), ladder.num_states());
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StateIndex index;
    const Model model =
        explore_indexed(ladder, t, index, {.threads = threads, .max_states = 2'000'000});
    expect_model_matches(ref.model, model);
    expect_index_matches(ref, index);
  }
  return ref;
}

TEST(ExploreOracle, LevelsStraddlingTheExpansionBlockInline) {
  const Ladder ladder(kBlockEdgeLevels, 32);
  const Reference ref = expect_ladder_matches_oracle(ladder, graph::classic_ring(3));
  EXPECT_LT(ref.max_level_successors, kParallelInternMin);
}

TEST(ExploreOracle, LevelsStraddlingTheExpansionBlockInParallel) {
  // 63 states x 3 philosophers x 400 branches: every level from the
  // second on interns on the pool.
  const Ladder ladder(kBlockEdgeLevels, 400);
  const Reference ref = expect_ladder_matches_oracle(ladder, graph::classic_ring(3));
  EXPECT_GE(ref.max_level_successors, kParallelInternMin);
}

TEST(ExploreOracle, ResumeFromACheckpointEndingMidBlock) {
  // A cap of 194 stops after the 63-state level: the expanded prefix is
  // 1 + 65 + 64 + 63 = 193 states (three blocks and one state), and the
  // resumed run's first level (130 states) starts inside a block.
  const Ladder ladder(kBlockEdgeLevels, 400);
  const auto t = graph::classic_ring(3);
  const Reference ref = reference_explore(ladder, t, 2'000'000);
  const std::string dir = ::testing::TempDir() + "gdp_ladder_checkpoint";
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const store::ChunkedModel capped =
        store::explore(ladder, t, {.chunk_states = 50}, {.threads = threads, .max_states = 194});
    ASSERT_TRUE(capped.truncated());
    ASSERT_EQ(capped.num_states(), 193u + 130u);
    ASSERT_FALSE(capped.frontier(192));
    ASSERT_TRUE(capped.frontier(193));
    const std::string path = dir + std::to_string(threads) + ".gdpstore";
    capped.save_checkpoint(path);
    const store::ChunkedModel loaded = store::ChunkedModel::load_checkpoint(ladder, t, path);
    const store::ChunkedModel resumed =
        store::resume(ladder, t, loaded, {}, {.threads = threads, .max_states = 2'000'000});
    std::remove(path.c_str());
    EXPECT_FALSE(resumed.truncated());
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
