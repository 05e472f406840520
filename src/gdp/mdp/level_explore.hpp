// The level-synchronous breadth-first explorer behind mdp::explore,
// mdp::explore_indexed and store::explore / store::resume.
//
// Exploration proceeds in BFS levels. A level is the contiguous id range
// [num_expanded, num_states): states discovered but not yet expanded — with
// level-synchronous expansion the unexpanded frontier is always an id tail,
// so no frontier queue exists at all. Each level runs in two phases:
//
//   1. Parallel expansion: every state of the level decodes its packed key,
//      steps the algorithm for each philosopher, and records its successor
//      keys/eater masks/probabilities in a per-state buffer. Tasks share
//      nothing writable, so any schedule produces the same buffers.
//   2. Sequential epilogue: successors intern in (state, philosopher,
//      branch) order — exactly the FIFO order the historical sequential
//      explorer assigned ids in, so complete models keep their numbering —
//      and the CSR rows materialize in the same pass.
//
// The state cap applies at LEVEL granularity: before expanding a level, if
// num_states >= max_states the run stops with every state either fully
// expanded or untouched frontier. Truncation is therefore a pure function
// of (algorithm, topology, max_states) — identical at every thread count,
// with no sequential fallback. A capped run may finish the level in flight
// and overshoot max_states by one level's discoveries; it never stops
// mid-level.
//
// Because expanded states always form an id prefix and levels are complete,
// a truncated model IS a checkpoint: restore() re-seeds an explorer from
// the model + its id-ordered keys, and run() continues exactly where the
// capped run stopped — the basis of gdp::mdp::store's save/resume contract.
#pragma once

#include <cstddef>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/topology.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/model.hpp"

namespace gdp::mdp::detail {

class LevelExplorer {
 public:
  /// Seeds the exploration at algo.initial_state(t). Requires
  /// ThinkMode::kHungry (the proofs' all-hungry setting) and at most 64
  /// philosophers (the eater/target masks are one 64-bit word).
  LevelExplorer(const algos::Algorithm& algo, const graph::Topology& t);

  /// Re-seeds from a previously explored model plus its id-ordered packed
  /// keys (as returned by take_model): the frontier must be a contiguous id
  /// tail and keys[0] must encode the initial state. run() then continues
  /// the interrupted run bit-identically.
  ///
  /// Generic over the Model read API (row/eaters/frontier): restoring from
  /// a store::ChunkedModel reads rows chunk by chunk and never needs the
  /// contiguous materialized form — the basis of store::resume's
  /// no-materialize contract. Rows are copied in (state, philosopher)
  /// ascending order, which reproduces the contiguous CSR byte for byte.
  template <class ModelT>
  void restore(const ModelT& model, std::vector<PackedKey> keys) {
    GDP_CHECK_MSG(model.num_phils() == topology_.num_phils(),
                  "restore: model has " << model.num_phils() << " philosophers, topology has "
                                        << topology_.num_phils());
    GDP_CHECK_MSG(keys.size() == model.num_states(),
                  "restore: " << keys.size() << " keys for " << model.num_states() << " states");
    GDP_CHECK_MSG(!keys.empty() && keys[0] == codec_.encode(algo_.initial_state(topology_)),
                  "restore: state 0 is not this (algorithm, topology)'s initial state");

    // The level-synchronous invariant: expanded states are an id prefix,
    // frontier states the tail. Anything else is not a checkpoint this
    // explorer produced.
    std::size_t expanded = 0;
    while (expanded < keys.size() && !model.frontier(static_cast<StateId>(expanded))) ++expanded;
    for (std::size_t s = expanded; s < keys.size(); ++s) {
      GDP_CHECK_MSG(model.frontier(static_cast<StateId>(s)),
                    "restore: expanded state " << s << " follows a frontier state — the model is "
                                                  "not a level-synchronous prefix");
    }

    const std::size_t n = static_cast<std::size_t>(model.num_phils());
    keys_ = std::move(keys);
    eaters_.resize(keys_.size());
    for (std::size_t s = 0; s < keys_.size(); ++s) eaters_[s] = model.eaters(static_cast<StateId>(s));
    outcomes_.clear();
    row_ends_.clear();
    row_ends_.reserve(expanded * n);
    for (std::size_t s = 0; s < expanded; ++s) {
      for (std::size_t p = 0; p < n; ++p) {
        const auto [begin, end] = model.row(static_cast<StateId>(s), static_cast<int>(p));
        outcomes_.insert(outcomes_.end(), begin, end);
        row_ends_.push_back(outcomes_.size());
      }
    }
    num_expanded_ = expanded;
    truncated_ = false;

    index_.reset(codec_);
    index_.reserve(keys_.size());
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      const auto [it, inserted] = index_.try_emplace(keys_[s], static_cast<StateId>(s));
      GDP_CHECK_MSG(inserted, "restore: duplicate key at state " << s);
    }
  }

  /// Level-synchronous BFS until the space is exhausted or num_states() >=
  /// max_states at a level boundary (the model is then truncated).
  void run(std::size_t max_states, int threads);

  const KeyCodec& codec() const { return codec_; }
  std::size_t num_states() const { return keys_.size(); }

  /// Consumes the explorer into the canonical CSR Model (leading zero
  /// offset, empty rows for frontier states). Optionally also yields the
  /// key -> id index and the id-ordered keys.
  Model take_model(StateIndex* index_out = nullptr, std::vector<PackedKey>* keys_out = nullptr);

 private:
  StateId intern(const PackedKey& key, std::uint64_t eater_bits);

  const algos::Algorithm& algo_;
  const graph::Topology& topology_;
  KeyCodec codec_;
  StateIndex index_;
  std::vector<PackedKey> keys_;          // id -> packed key
  std::vector<std::uint64_t> eaters_;    // id -> eater mask
  std::vector<std::uint64_t> row_ends_;  // (expanded id, phil) -> end in outcomes_
  std::vector<Outcome> outcomes_;
  std::size_t num_expanded_ = 0;  // expanded states are the id prefix [0, num_expanded_)
  bool truncated_ = false;
};

}  // namespace gdp::mdp::detail
