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
//      keys/hashes/eater masks/probabilities. States go in blocks of 64;
//      each block records into one buffer (reused across levels, one per
//      block rather than one per state), decodes into one reused state and
//      steps through one reused scratch (Algorithm::step's sink form). The
//      sink encodes, hashes and eater-masks each successor straight into
//      the block's buffer, so no branch allocates a SimState. Tasks share
//      nothing writable, so any schedule produces the same buffers.
//   2. Phase-concurrent interning into the StateIndex (key.hpp). Every
//      successor has a level position in (state, philosopher, branch)
//      order — its index in the level's outcome rows. A stable counting
//      sort buckets positions by hash shard; shards resolve in parallel,
//      each in ascending position order, claiming absent keys as "pending,
//      first seen at position j"; a prefix scan over the first occurrences
//      numbers the new states in position order. That is exactly the FIFO
//      order the historical sequential explorer assigned ids in, so models
//      keep their numbering at every thread count. Parallel passes then
//      write the new keys and eater masks, the outcome rows, and settle the
//      pending slots to their ids. The intern phases address a state as
//      (expansion block, offset in the block).
//
// The id-ordered arrays (eater masks, row ends, outcome rows) are
// common::GrowArrays: a level appends to them without copying what earlier
// levels wrote and without zero-filling the tail, and the parallel passes
// that write the tail are the first to touch its pages. take_model() moves
// them into the Model as they are.
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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/common/grow_array.hpp"
#include "gdp/graph/topology.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/model.hpp"

namespace gdp::mdp::detail {

struct LevelScratch;  // one level's expansion buffers and intern arrays

class LevelExplorer {
 public:
  /// Seeds the exploration at algo.initial_state(t). Requires
  /// ThinkMode::kHungry (the proofs' all-hungry setting) and at most 64
  /// philosophers (the eater/target masks are one 64-bit word).
  LevelExplorer(const algos::Algorithm& algo, const graph::Topology& t);

  /// Re-seeds from a previously explored model plus its id-ordered flat
  /// keys (key_words() words per state, as the taken StateIndex holds them):
  /// the frontier must be a contiguous id tail and state 0's key must encode
  /// the initial state. run() then continues the interrupted run
  /// bit-identically.
  ///
  /// Generic over the Model read API (row/eaters/frontier): restoring from
  /// a store::ChunkedModel reads rows chunk by chunk and never needs the
  /// contiguous materialized form — the basis of store::resume's
  /// no-materialize contract. Rows are copied in (state, philosopher)
  /// ascending order, which reproduces the contiguous CSR byte for byte.
  template <class ModelT>
  void restore(const ModelT& model, common::GrowArray<std::uint64_t> keys) {
    GDP_CHECK_MSG(model.num_phils() == topology_.num_phils(),
                  "restore: model has " << model.num_phils() << " philosophers, topology has "
                                        << topology_.num_phils());
    const std::size_t kw = codec_.key_words();
    const std::size_t states = model.num_states();
    GDP_CHECK_MSG(states > 0 && keys.size() == states * kw,
                  "restore: " << keys.size() << " key words for " << states << " states of "
                              << kw << " words");
    std::vector<std::uint64_t> initial(kw);
    codec_.encode(algo_.initial_state(topology_), initial.data());
    GDP_CHECK_MSG(std::equal(initial.begin(), initial.end(), keys.begin()),
                  "restore: state 0 is not this (algorithm, topology)'s initial state");

    // The level-synchronous invariant: expanded states are an id prefix,
    // frontier states the tail. Anything else is not a checkpoint this
    // explorer produced.
    std::size_t expanded = 0;
    while (expanded < states && !model.frontier(static_cast<StateId>(expanded))) ++expanded;
    for (std::size_t s = expanded; s < states; ++s) {
      GDP_CHECK_MSG(model.frontier(static_cast<StateId>(s)),
                    "restore: expanded state " << s << " follows a frontier state — the model is "
                                                  "not a level-synchronous prefix");
    }

    const std::size_t n = static_cast<std::size_t>(model.num_phils());
    eaters_.clear();
    std::uint64_t* const eaters = eaters_.grow(states);
    for (std::size_t s = 0; s < states; ++s) eaters[s] = model.eaters(static_cast<StateId>(s));
    outcomes_.clear();
    row_ends_.clear();
    row_ends_.reserve(expanded * n + 1);
    row_ends_.push_back(0);
    for (std::size_t s = 0; s < expanded; ++s) {
      for (std::size_t p = 0; p < n; ++p) {
        const auto [begin, end] = model.row(static_cast<StateId>(s), static_cast<int>(p));
        outcomes_.append(begin, end);
        row_ends_.push_back(outcomes_.size());
      }
    }
    num_expanded_ = expanded;
    truncated_ = false;
    index_.restore(codec_, std::move(keys));  // throws on a duplicate key
  }

  /// Level-synchronous BFS until the space is exhausted or the state count >=
  /// max_states at a level boundary (the model is then truncated).
  void run(std::size_t max_states, int threads);

  /// Consumes the explorer into the canonical CSR Model (leading zero
  /// offset, empty rows for frontier states). Optionally also hands over
  /// the state table (key <-> id).
  Model take_model(StateIndex* index_out = nullptr);

 private:
  void intern_level(LevelScratch& scratch, std::size_t count, int threads);

  const algos::Algorithm& algo_;
  const graph::Topology& topology_;
  KeyCodec codec_;
  StateIndex index_;                     // id <-> packed key
  common::GrowArray<std::uint64_t> eaters_;    // id -> eater mask
  common::GrowArray<std::uint64_t> row_ends_;  // Model offsets of the expanded prefix: 0,
                                               // then (expanded id, phil) -> end in outcomes_
  common::GrowArray<Outcome> outcomes_;
  std::size_t num_expanded_ = 0;  // expanded states are the id prefix [0, num_expanded_)
  bool truncated_ = false;
};

}  // namespace gdp::mdp::detail
