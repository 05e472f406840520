// Template definition of the MEC decomposition — the engine's only MEC
// kernel — generalized over any type exposing the Model read API
// (num_states/num_phils/row/eaters/frontier). Models are rooted by
// construction (see Model), so no reachability sweep accompanies it.
//
// Two instantiations exist on purpose: `Model` (end_components.cpp — the
// contiguous in-RAM path) and `store::ChunkedModel` (store.cpp — the
// chunk-native path, which must produce byte-identical components without
// ever materializing a contiguous model). Quant (quant_impl.hpp) calls the
// same templates. Keeping one definition is what makes the bit-identity
// contract hold by construction.
//
// MEC decomposition is worklist refinement (Baier & Katoen, Principles of
// Model Checking, Alg. 47; Chatterjee & Henzinger, JACM 61(3) 2014). Each
// block on the worklist is a set of candidate states sharing one label;
// the first block is the whole candidate set. A block runs Tarjan once,
// over the edges of its usable actions (every outcome stays in the block),
// resetting the Tarjan scratch of its own members only. For each SCC C of
// the block, one pass drops every state with no action whose outcomes all
// stay in C. C is final when it dropped nothing and either |C| = 1 or no
// state of C has a "cut" action — usable in the parent block but leaving
// C. The cut re-check is what keeps the answer exact: Tarjan saw C as
// strongly connected through every block-usable action, and a cut action's
// edges inside C no longer count once C is on its own (s0 reaching s1 only
// through an action that may also leave C splits {s0, s1} on the next
// round; tests/test_mec_oracle.cpp pins a 3-state instance). Any other C,
// minus its dropped states, goes back on the worklist. Blocks that did not
// lose states are never decomposed again, which is the saving over
// re-running Tarjan on every candidate each round; the worst case stays
// O(n·m) (one state leaves per round). Labels are member state ids, so
// they stay unique among live blocks. MECs are unique, so the collection
// pass (ascending state scan, ids by first appearance) returns the same
// vectors whatever order the worklist runs in.
//
// Both kernels run sequentially at every thread count: parallel variants
// did not pay for themselves on the benchmark ledger (README, "What runs
// on the pool").
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/obs/obs.hpp"

namespace gdp::mdp::detail {

inline constexpr std::int32_t kEcRemoved = -1;

/// Iterative Tarjan SCC over one block of the refinement: the states
/// labelled `tag`, with edges from the actions whose outcomes all carry
/// `tag`. The SCCs land in one flat buffer (`states()`, closed by the
/// offsets in `ends()`; n < 2^31, so offsets fit 32 bits), and `scc(s)` is
/// the block-local SCC index of each member. The scratch arrays span the
/// model and are reused across blocks.
template <class ModelT>
class BlockSccT {
 public:
  BlockSccT(const ModelT& model, const std::vector<std::int32_t>& label)
      : model_(model),
        label_(label),
        index_(model.num_states(), -1),
        low_(model.num_states(), 0),
        scc_(model.num_states(), kEcRemoved),
        on_stack_(model.num_states(), 0) {}

  void run(const StateId* begin, const StateId* end, std::int32_t tag) {
    tag_ = tag;
    counter_ = 0;
    states_.clear();
    ends_.clear();
    // Only members are ever visited (usable edges stay in the block), and
    // on_stack_ is clear again after every run, so index_ is all we reset.
    for (const StateId* s = begin; s != end; ++s) index_[*s] = -1;
    for (const StateId* s = begin; s != end; ++s) {
      if (index_[*s] == -1) strongconnect(*s);
    }
  }

  const std::vector<StateId>& states() const { return states_; }
  const std::vector<std::uint32_t>& ends() const { return ends_; }
  std::int32_t scc(StateId s) const { return scc_[s]; }
  void mark_dropped(StateId s) { scc_[s] = kEcRemoved; }
  /// States pushed by every run so far (the mec.tarjan_states counter).
  std::uint64_t pushed() const { return pushed_; }

 private:
  bool usable(StateId s, int p) const {
    const auto [begin, end] = model_.row(s, p);
    if (begin == end) return false;
    for (const Outcome* o = begin; o != end; ++o) {
      if (label_[o->next] != tag_) return false;
    }
    return true;
  }

  void strongconnect(StateId root) {
    auto push_state = [&](StateId s) {
      index_[s] = low_[s] = counter_++;
      tarjan_stack_.push_back(s);
      on_stack_[s] = 1;
      frames_.push_back(Frame{s, -1, nullptr, nullptr});
      ++pushed_;
    };
    push_state(root);

    while (!frames_.empty()) {
      Frame& frame = frames_.back();
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
        frames_.pop_back();
        if (!frames_.empty()) {
          low_[frames_.back().state] = std::min(low_[frames_.back().state], low_[s]);
        }
        if (low_[s] == index_[s]) {
          const auto id = static_cast<std::int32_t>(ends_.size());
          while (true) {
            const StateId w = tarjan_stack_.back();
            tarjan_stack_.pop_back();
            on_stack_[w] = 0;
            scc_[w] = id;
            states_.push_back(w);
            if (w == s) break;
          }
          ends_.push_back(static_cast<std::uint32_t>(states_.size()));
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

  struct Frame {
    StateId state;
    int phil;
    const Outcome* edge;
    const Outcome* edge_end;
  };

  const ModelT& model_;
  const std::vector<std::int32_t>& label_;
  std::vector<std::int32_t> index_;
  std::vector<std::int32_t> low_;
  std::vector<std::int32_t> scc_;
  std::vector<std::uint8_t> on_stack_;
  std::vector<Frame> frames_;
  std::vector<StateId> tarjan_stack_;
  std::vector<StateId> states_;
  std::vector<std::uint32_t> ends_;
  std::int32_t tag_ = kEcRemoved;
  std::int32_t counter_ = 0;
  std::uint64_t pushed_ = 0;
};

template <class ModelT>
std::vector<EndComponent> maximal_end_components_t(const ModelT& model, std::uint64_t avoid_set) {
  const std::size_t n = model.num_states();
  // Labels and Tarjan indices are int32.
  GDP_CHECK_MSG(n < (std::uint64_t{1} << 31),
                "MEC decomposition supports < 2^31 states, got " << n);
  obs::Span span("mec.decompose");
  // Block label per state; kEcRemoved = outside the candidate set. The
  // first block holds every expanded state where no avoid_set member eats,
  // labelled with its first member.
  std::vector<std::int32_t> component(n, kEcRemoved);
  std::vector<StateId> pending;  // the worklist's blocks, back to back
  std::vector<std::uint32_t> pending_ends;
  for (StateId s = 0; s < n; ++s) {
    if ((model.eaters(s) & avoid_set) != 0 || model.frontier(s)) continue;
    pending.push_back(s);
    component[s] = static_cast<std::int32_t>(pending.front());
  }
  if (!pending.empty()) pending_ends.push_back(static_cast<std::uint32_t>(pending.size()));

  BlockSccT<ModelT> tarjan(model, component);
  const std::vector<StateId>& scc_states = tarjan.states();
  const std::vector<std::uint32_t>& scc_ends = tarjan.ends();
  auto scc_begin = [&](std::size_t c) { return c == 0 ? std::uint32_t{0} : scc_ends[c - 1]; };
  std::uint64_t blocks = 0;
  while (!pending_ends.empty()) {
    pending_ends.pop_back();
    const std::size_t first = pending_ends.empty() ? 0 : pending_ends.back();
    const std::int32_t tag = component[pending[first]];
    tarjan.run(pending.data() + first, pending.data() + pending.size(), tag);
    pending.resize(first);
    ++blocks;

    // Per SCC C: drop the states with no action closed in C, and look for a
    // cut action. Every member still carries `tag` during this pass, so
    // "usable in the block" is exact; relabelling waits for the next pass.
    for (std::size_t c = 0; c < scc_ends.size(); ++c) {
      const auto id = static_cast<std::int32_t>(c);
      bool dropped = false, cut = false;
      for (std::size_t k = scc_begin(c); k < scc_ends[c]; ++k) {
        const StateId s = scc_states[k];
        bool closed = false;
        for (int p = 0; p < model.num_phils() && !(closed && cut); ++p) {
          const auto [begin, end] = model.row(s, p);
          if (begin == end) continue;
          bool in_block = true, in_scc = true;
          for (const Outcome* o = begin; o != end && in_block; ++o) {
            in_block = component[o->next] == tag;
            in_scc = in_scc && tarjan.scc(o->next) == id;
          }
          if (!in_block) continue;
          closed = closed || in_scc;
          cut = cut || !in_scc;
        }
        if (!closed) {
          tarjan.mark_dropped(s);
          dropped = true;
        }
      }
      if (!dropped && (!cut || scc_ends[c] - scc_begin(c) == 1)) continue;  // final
      const std::size_t at = pending.size();
      for (std::size_t k = scc_begin(c); k < scc_ends[c]; ++k) {
        if (tarjan.scc(scc_states[k]) != kEcRemoved) pending.push_back(scc_states[k]);
      }
      if (pending.size() > at) pending_ends.push_back(static_cast<std::uint32_t>(pending.size()));
    }
    // Each SCC takes its root's id as its label; dropped states leave.
    for (std::size_t c = 0; c < scc_ends.size(); ++c) {
      const auto label = static_cast<std::int32_t>(scc_states[scc_ends[c] - 1]);
      for (std::size_t k = scc_begin(c); k < scc_ends[c]; ++k) {
        const StateId s = scc_states[k];
        component[s] = tarjan.scc(s) == kEcRemoved ? kEcRemoved : label;
      }
    }
  }
  static obs::Counter& blocks_ctr = obs::Registry::global().counter("mec.blocks");
  static obs::Counter& tarjan_ctr = obs::Registry::global().counter("mec.tarjan_states");
  blocks_ctr.add(blocks);
  tarjan_ctr.add(tarjan.pushed());

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

}  // namespace gdp::mdp::detail
