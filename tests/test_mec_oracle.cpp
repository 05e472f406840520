// The MEC kernel against a reference oracle: the round-based refinement the
// engine used before the worklist kernel, kept here verbatim. Every round
// it re-runs Tarjan over all candidate states, drops the states with no
// action closed in their SCC, and stops when the partition is unchanged.
// MECs are unique, so both must return identical EndComponent vectors
// (states, order, phil_mask) on every model, mask and storage layout.
//
// Labelled `store`: the chunk-native half runs under the CI forced-spill
// passes (GDP_TEST_FORCE_SPILL=1, plus GDP_TEST_CHUNK_STATES /
// GDP_TEST_MAX_RESIDENT_CHUNKS for the bounded-resident pass), so the
// worklist kernel walks the LRU fault path there.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/end_components_impl.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/obs/obs.hpp"

namespace gdp::mdp {
namespace {

using detail::kEcRemoved;

// --- The reference: round-based refinement. ---------------------------------

/// Iterative Tarjan SCC over the candidate sub-MDP. Edges are the outcomes
/// of currently-usable actions; `component[s]` gets a dense SCC id (or
/// kEcRemoved for states outside the candidate set).
template <class ModelT>
class SccFinderT {
 public:
  SccFinderT(const ModelT& model, const std::vector<std::int32_t>& component,
             std::vector<std::int32_t>& out)
      : model_(model), in_(component), out_(out) {}

  int run() {
    const std::size_t n = model_.num_states();
    index_.assign(n, -1);
    low_.assign(n, 0);
    on_stack_.assign(n, false);
    std::fill(out_.begin(), out_.end(), kEcRemoved);
    for (StateId s = 0; s < n; ++s) {
      if (in_[s] != kEcRemoved && index_[s] == -1) strongconnect(s);
    }
    return next_scc_;
  }

 private:
  /// Usable action: all outcomes stay in the same candidate partition as s.
  bool usable(StateId s, int p) const {
    const auto [begin, end] = model_.row(s, p);
    if (begin == end) return false;
    for (const Outcome* o = begin; o != end; ++o) {
      if (in_[o->next] != in_[s]) return false;
    }
    return true;
  }

  void strongconnect(StateId root) {
    struct Frame {
      StateId state;
      int phil;
      const Outcome* edge;
      const Outcome* edge_end;
    };
    std::vector<Frame> stack;
    auto push_state = [&](StateId s) {
      index_[s] = low_[s] = counter_++;
      tarjan_stack_.push_back(s);
      on_stack_[s] = true;
      stack.push_back(Frame{s, -1, nullptr, nullptr});
    };
    push_state(root);

    while (!stack.empty()) {
      Frame& frame = stack.back();
      // Advance to the next outgoing edge.
      if (frame.edge == frame.edge_end) {
        // Move to the next usable action row.
        ++frame.phil;
        while (frame.phil < model_.num_phils() && !usable(frame.state, frame.phil)) ++frame.phil;
        if (frame.phil < model_.num_phils()) {
          const auto [begin, end] = model_.row(frame.state, frame.phil);
          frame.edge = begin;
          frame.edge_end = end;
          continue;
        }
        // All edges done: close the frame.
        const StateId s = frame.state;
        stack.pop_back();
        if (!stack.empty()) {
          low_[stack.back().state] = std::min(low_[stack.back().state], low_[s]);
        }
        if (low_[s] == index_[s]) {
          const std::int32_t id = next_scc_++;
          while (true) {
            const StateId w = tarjan_stack_.back();
            tarjan_stack_.pop_back();
            on_stack_[w] = false;
            out_[w] = id;
            if (w == s) break;
          }
        }
        continue;
      }
      const StateId next = frame.edge->next;
      ++frame.edge;
      if (index_[next] == -1) {
        push_state(next);
      } else if (on_stack_[next]) {
        low_[frame.state] = std::min(low_[frame.state], index_[next]);
      }
    }
  }

  const ModelT& model_;
  const std::vector<std::int32_t>& in_;
  std::vector<std::int32_t>& out_;
  std::vector<std::int32_t> index_;
  std::vector<std::int32_t> low_;
  std::vector<bool> on_stack_;
  std::vector<StateId> tarjan_stack_;
  std::int32_t counter_ = 0;
  std::int32_t next_scc_ = 0;
};

template <class ModelT>
std::vector<EndComponent> reference_mecs(const ModelT& model, std::uint64_t avoid_set) {
  const std::size_t n = model.num_states();
  // Partition id per state; kEcRemoved = outside the candidate set. Start with
  // one partition holding every expanded state where no avoid_set member eats.
  std::vector<std::int32_t> component(n, kEcRemoved);
  for (StateId s = 0; s < n; ++s) {
    if ((model.eaters(s) & avoid_set) == 0 && !model.frontier(s)) component[s] = 0;
  }

  std::vector<std::int32_t> refined(n, kEcRemoved);
  bool changed = true;
  while (changed) {
    changed = false;
    SccFinderT<ModelT> finder(model, component, refined);
    finder.run();

    // A state survives if at least one action keeps ALL outcomes within its
    // own (new) SCC; otherwise remove it and iterate.
    for (StateId s = 0; s < n; ++s) {
      if (component[s] == kEcRemoved) continue;
      if (refined[s] == kEcRemoved) {
        component[s] = kEcRemoved;
        changed = true;
        continue;
      }
      bool has_usable = false;
      for (int p = 0; p < model.num_phils() && !has_usable; ++p) {
        const auto [begin, end] = model.row(s, p);
        if (begin == end) continue;
        bool inside = true;
        for (const Outcome* o = begin; o != end && inside; ++o) {
          inside = refined[o->next] != kEcRemoved && refined[o->next] == refined[s];
        }
        has_usable = inside;
      }
      if (!has_usable) {
        refined[s] = kEcRemoved;
        changed = true;
      }
    }
    if (!std::equal(component.begin(), component.end(), refined.begin())) changed = true;
    component = refined;
  }

  // Collect surviving partitions as MECs with their philosopher masks.
  std::vector<std::int32_t> id_remap;
  std::vector<EndComponent> mecs;
  for (StateId s = 0; s < n; ++s) {
    if (component[s] == kEcRemoved) continue;
    const auto raw = static_cast<std::size_t>(component[s]);
    if (raw >= id_remap.size()) id_remap.resize(raw + 1, kEcRemoved);
    if (id_remap[raw] == kEcRemoved) {
      id_remap[raw] = static_cast<std::int32_t>(mecs.size());
      mecs.emplace_back();
    }
    EndComponent& mec = mecs[static_cast<std::size_t>(id_remap[raw])];
    mec.states.push_back(s);
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [begin, end] = model.row(s, p);
      if (begin == end) continue;
      bool inside = true;
      for (const Outcome* o = begin; o != end && inside; ++o) {
        inside = component[o->next] == component[s];
      }
      if (inside && p < 64) mec.phil_mask |= (std::uint64_t{1} << p);
    }
  }
  return mecs;
}

// --- Helpers. ------------------------------------------------------------------

void expect_same_mecs(const std::vector<EndComponent>& got,
                      const std::vector<EndComponent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t m = 0; m < want.size(); ++m) {
    ASSERT_EQ(got[m].states, want[m].states) << "MEC " << m;
    ASSERT_EQ(got[m].phil_mask, want[m].phil_mask) << "MEC " << m;
  }
}

/// Hand-built MDP: rows in (state-major, philosopher-major) order;
/// rows[s * num_phils + p] lists that action's (prob, next) outcomes.
Model hand_model(int num_phils, const std::vector<std::vector<Outcome>>& rows,
                 std::vector<std::uint64_t> eaters, std::vector<bool> frontier = {}) {
  std::vector<std::uint64_t> offsets{0};
  std::vector<Outcome> outcomes;
  for (const auto& row : rows) {
    for (const Outcome& o : row) outcomes.push_back(o);
    offsets.push_back(outcomes.size());
  }
  const bool truncated = std::find(frontier.begin(), frontier.end(), true) != frontier.end();
  if (frontier.empty()) frontier.assign(eaters.size(), false);
  return Model::build(num_phils, std::move(offsets), std::move(outcomes), std::move(eaters),
                      std::move(frontier), truncated);
}

/// Checks the kernel against both the oracle and a hand-derived answer.
void expect_mecs(const Model& m, std::uint64_t avoid_set, const std::vector<EndComponent>& want) {
  expect_same_mecs(reference_mecs(m, avoid_set), want);
  expect_same_mecs(maximal_end_components(m, avoid_set), want);
}

EndComponent mec(std::vector<StateId> states, std::uint64_t phil_mask) {
  return EndComponent{std::move(states), phil_mask};
}

// --- Hand-built MDPs. ----------------------------------------------------------

// The cut case. Round one sees {s0, s1} as one SCC: s0 reaches s1 through
// P0's action, which may also fall into s2. That action leaves {s0, s1},
// so on its own the pair is not strongly connected any more: only {s0}
// (P1's self-loop) survives next to {s2}. A kernel that finalized SCCs
// which dropped no state, without re-checking such cut actions, would
// report {s0, s1}.
TEST(MecOracleHand, CutActionSplitsTheBlock) {
  const Model m = hand_model(2,
                             {{{0.5f, 1}, {0.5f, 2}},  // s0, P0
                              {{1.0f, 0}},             // s0, P1: self-loop
                              {{1.0f, 0}},             // s1, P0
                              {},                      // s1, P1
                              {{1.0f, 2}},             // s2, P0: self-loop
                              {}},                     // s2, P1
                             {0, 0, 0});
  expect_mecs(m, ~std::uint64_t{0}, {mec({0}, 0b10), mec({2}, 0b01)});
}

TEST(MecOracleHand, SingletonSelfLoop) {
  const Model m = hand_model(1, {{{1.0f, 0}}}, {0});
  expect_mecs(m, ~std::uint64_t{0}, {mec({0}, 0b1)});
}

// A chain that only ends in a self-loop: every other state leaves, one per
// Tarjan pass in the worst case, and only the tail survives.
TEST(MecOracleHand, RemovalChain) {
  const Model m = hand_model(1,
                             {{{1.0f, 1}},   // s0 -> s1
                              {{1.0f, 2}},   // s1 -> s2
                              {{1.0f, 3}},   // s2 -> s3
                              {{0.5f, 4}, {0.5f, 0}},   // s3 -> s4 | s0
                              {{1.0f, 4}}},  // s4: self-loop
                             {0, 0, 0, 0, 0});
  expect_mecs(m, ~std::uint64_t{0}, {mec({4}, 0b1)});
  // With s4 eating and avoided, s3's only action leaves: nothing survives.
  const Model eats = hand_model(1,
                                {{{1.0f, 1}}, {{1.0f, 2}}, {{1.0f, 3}},
                                 {{0.5f, 4}, {0.5f, 0}}, {{1.0f, 4}}},
                                {0, 0, 0, 0, 1});
  expect_mecs(eats, ~std::uint64_t{0}, {});
  expect_mecs(eats, 0, {mec({4}, 0b1)});
}

TEST(MecOracleHand, EmptyCandidateSet) {
  const Model m = hand_model(2,
                             {{{1.0f, 1}}, {{1.0f, 0}},
                              {{1.0f, 0}}, {{1.0f, 1}}},
                             {0b01, 0b10});
  expect_mecs(m, ~std::uint64_t{0}, {});
  expect_mecs(m, 0, {mec({0, 1}, 0b11)});
}

// Frontier states are never candidates, and actions that can reach one are
// never usable: s1's P1 action is dropped from the {s0, s1} component.
TEST(MecOracleHand, FrontierStates) {
  const Model m = hand_model(2,
                             {{{1.0f, 1}},             // s0, P0
                              {},                      // s0, P1
                              {{1.0f, 0}},             // s1, P0
                              {{0.5f, 1}, {0.5f, 2}},  // s1, P1: may hit the frontier
                              {},                      // s2 (frontier)
                              {}},
                             {0, 0, 0}, {false, false, true});
  expect_mecs(m, ~std::uint64_t{0}, {mec({0, 1}, 0b01)});
}

// --- The explored matrix, on Model and ChunkedModel. ---------------------------

bool force_spill() {
  const char* v = std::getenv("GDP_TEST_FORCE_SPILL");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

struct MatrixCase {
  graph::Topology t;
  std::size_t cap;
};

void check_matrix_case(const std::string& algo_name, const MatrixCase& c,
                       const std::filesystem::path& dir) {
  SCOPED_TRACE(algo_name + " on " + c.t.name());
  const auto algo = algos::make_algorithm(algo_name);
  CheckOptions options;
  options.max_states = c.cap;
  const Model model = explore(*algo, c.t, options);
  store::StoreOptions store_options;
  store_options.chunk_states = env_size("GDP_TEST_CHUNK_STATES", 4'096);
  store_options.spill = force_spill();
  store_options.dir = dir.string();
  store_options.max_resident_chunks = env_size("GDP_TEST_MAX_RESIDENT_CHUNKS", 0);
  const store::ChunkedModel chunked = store::explore(*algo, c.t, store_options, options);
  ASSERT_EQ(chunked.num_states(), model.num_states());

  // The chunk-native instantiation runs on the two whole-set masks: the
  // single-philosopher masks add nothing chunk-specific and, under the CI
  // bounded-resident pass, cost a full LRU sweep each.
  std::vector<std::uint64_t> masks{0, ~std::uint64_t{0}};
  for (int p = 0; p < c.t.num_phils(); ++p) masks.push_back(std::uint64_t{1} << p);
  for (const std::uint64_t mask : masks) {
    SCOPED_TRACE("avoid mask " + std::to_string(mask));
    const std::vector<EndComponent> want = reference_mecs(model, mask);
    expect_same_mecs(maximal_end_components(model, mask), want);
    if (mask == 0 || mask == ~std::uint64_t{0}) {
      expect_same_mecs(store::maximal_end_components(chunked, mask), want);
    }
  }
}

class MecOracleMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(MecOracleMatrix, MatchesReferenceOnEveryMask) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("gdp_mec_oracle_" + std::string(GetParam()) + "_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const MatrixCase cases[] = {{graph::classic_ring(3), 2'000'000},
                              {graph::parallel_arcs(3), 2'000'000},
                              {graph::ring_with_pendant(3), 50'000},
                              {graph::parallel_arcs(4), 150'000}};
  for (const MatrixCase& c : cases) check_matrix_case(GetParam(), c, dir);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // best-effort cleanup
}

INSTANTIATE_TEST_SUITE_P(Algorithms, MecOracleMatrix,
                         ::testing::Values("lr1", "lr2", "gdp1", "gdp2", "gdp2c", "ordered"));

// The refinement's work counters are deterministic: the same model and
// mask give the same block and Tarjan-push counts, and a decomposition
// pushes every candidate state at least once.
TEST(MecOracleCounters, BlocksAndTarjanStatesAreDeterministic) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& blocks = obs::Registry::global().counter("mec.blocks");
  obs::Counter& pushed = obs::Registry::global().counter("mec.tarjan_states");
  const auto algo = algos::make_algorithm("lr2");
  const Model m = explore(*algo, graph::parallel_arcs(3));
  std::size_t candidates = 0;
  for (StateId s = 0; s < m.num_states(); ++s) candidates += m.eaters(s) == 0 ? 1 : 0;
  std::uint64_t first_blocks = 0, first_pushed = 0;
  for (int run = 0; run < 2; ++run) {
    blocks.reset();
    pushed.reset();
    (void)maximal_end_components(m);
    if (run == 0) {
      first_blocks = blocks.value();
      first_pushed = pushed.value();
      EXPECT_GE(first_blocks, 1u);
      EXPECT_GE(first_pushed, candidates);
    } else {
      EXPECT_EQ(blocks.value(), first_blocks);
      EXPECT_EQ(pushed.value(), first_pushed);
    }
  }
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace gdp::mdp
