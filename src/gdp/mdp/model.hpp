// Explicit-state MDP extracted from (algorithm x topology).
//
// The paper's §2 computation model is a probabilistic automaton in the sense
// of Segala & Lynch: nondeterminism (which philosopher steps) is resolved by
// an adversary, randomness by the algorithm's draws. For finite systems in
// the all-hungry setting this is a finite MDP whose actions are philosopher
// ids: exploring it lets us *decide* the paper's progress statements
// mechanically instead of only sampling runs (see fair_progress.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/grow_array.hpp"
#include "gdp/graph/topology.hpp"

namespace gdp::mdp {

using StateId = std::uint32_t;

struct Outcome {
  float prob = 0.0f;
  StateId next = 0;
};

namespace detail {

class LevelExplorer;

/// Streaming check of the discovery-order invariant (see Model), one bit
/// per state: feed every state's outcomes (`next` range-checked) in
/// ascending id order; feed() is false iff that state is an orphan.
class DiscoveryOrder {
 public:
  explicit DiscoveryOrder(std::size_t num_states) : entered_(num_states, false) {}
  bool feed(const Outcome* begin, const Outcome* end) {
    const bool rooted = next_ == 0 || entered_[next_];
    for (const Outcome* o = begin; o != end; ++o) entered_[o->next] = true;
    ++next_;
    return rooted;
  }

 private:
  std::vector<bool> entered_;
  std::size_t next_ = 0;
};

}  // namespace detail

/// CSR-packed MDP. Row (state s, philosopher p) holds the probabilistic
/// outcomes of scheduling p in s; every state has exactly `num_phils` rows.
///
/// Rooted by construction: state ids are a discovery order from
/// `initial()` == 0 (every s > 0 has an incoming outcome from some u < s),
/// so by induction every state is reachable and no check sweeps it. The
/// explorers produce the order; build() and load_checkpoint enforce it.
///
/// Limit: at most 64 philosophers. `eaters()` and every target/avoid set
/// are single 64-bit masks (bit p = philosopher p); beyond 64 philosophers
/// the masks would silently alias, so construction refuses instead
/// (GDP_CHECK in Model::build and in the explorers). Lifting the limit
/// means widening the masks end to end — model, end components, quant.
class Model {
 public:
  int num_phils() const { return num_phils_; }
  std::size_t num_states() const { return eaters_.size(); }
  StateId initial() const { return 0; }

  bool eating(StateId s) const { return eaters_[s] != 0; }

  /// Bitmask of philosophers eating in s (bit p). The paper's E is
  /// eaters(s) != 0; E restricted to a set S is (eaters(s) & S) != 0.
  std::uint64_t eaters(StateId s) const { return eaters_[s]; }

  /// Outcomes of scheduling philosopher p in state s.
  std::pair<const Outcome*, const Outcome*> row(StateId s, int p) const {
    const std::size_t idx = static_cast<std::size_t>(s) * static_cast<std::size_t>(num_phils_) +
                            static_cast<std::size_t>(p);
    return {outcomes_.data() + offsets_[idx], outcomes_.data() + offsets_[idx + 1]};
  }

  /// True if exploration hit the state cap: the model is a prefix, and
  /// states beyond the cap appear as `frontier` states with no rows.
  bool truncated() const { return truncated_; }
  bool frontier(StateId s) const { return frontier_[s]; }

  /// Total number of (state, action) rows, for reporting.
  std::size_t num_rows() const { return num_states() * static_cast<std::size_t>(num_phils_); }

  /// Assembles a Model directly from its CSR parts — the hand-built-MDP
  /// entry point for tests and external tooling (the quantitative checker's
  /// unit tests feed 2-3-state systems with known values through this).
  /// `offsets` must have num_states * num_phils + 1 monotone entries ending
  /// at outcomes.size(); frontier states must have empty rows and be an id
  /// tail, and `truncated` must hold exactly when there are any; every
  /// outcome's `next` must be a valid state id; ids must be a discovery
  /// order (see above). Throws PreconditionError on violations.
  static Model build(int num_phils, common::GrowArray<std::uint64_t> offsets,
                     common::GrowArray<Outcome> outcomes, common::GrowArray<std::uint64_t> eaters,
                     std::vector<bool> frontier, bool truncated = false);
  /// The same from vectors, which are copied into the Model's storage.
  static Model build(int num_phils, const std::vector<std::uint64_t>& offsets,
                     const std::vector<Outcome>& outcomes, const std::vector<std::uint64_t>& eaters,
                     std::vector<bool> frontier, bool truncated = false);

 private:
  /// The shared level-synchronous explorer (gdp/mdp/level_explore.hpp)
  /// builds the CSR arrays in place and moves them in. They grow level by
  /// level without copies (gdp/common/grow_array.hpp).
  friend class detail::LevelExplorer;

  int num_phils_ = 0;
  common::GrowArray<std::uint64_t> offsets_;  // (num_states * num_phils) + 1
  common::GrowArray<Outcome> outcomes_;
  common::GrowArray<std::uint64_t> eaters_;
  std::vector<bool> frontier_;
  bool truncated_ = false;
};

/// Options of the model-checking front-end (explore, explore_indexed,
/// check_fair_progress, store::explore / store::resume).
struct CheckOptions {
  /// Worker threads for exploration; 0 = std::thread::hardware_concurrency().
  /// Results are bit-identical at every count.
  int threads = 0;

  /// Exploration state cap, applied at BFS level boundaries (see explore).
  std::size_t max_states = 2'000'000;
};

/// Level-synchronous breadth-first exploration from the algorithm's initial
/// state (all philosophers thinking). Each level expands on the shared pool
/// (gdp/common/pool.hpp) and interns phase-concurrently with ids numbered in
/// (state, philosopher, branch) order, so the model is bit-identical at every
/// thread count. The `max_states` cap
/// applies at level boundaries: a run never stops mid-level, so a capped
/// model is a pure function of (algorithm, topology, max_states) and its
/// unexpanded frontier states (flagged on the model) are always the id tail,
/// resumable via gdp::mdp::store.
///
/// Requires ThinkMode::kHungry (the proofs' all-hungry setting) so the MDP
/// stays finite and E-avoidance is meaningful.
Model explore(const algos::Algorithm& algo, const graph::Topology& t, CheckOptions options = {});

}  // namespace gdp::mdp
