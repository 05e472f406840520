// Template definitions of the MEC decomposition and the reachability
// sweep — the engine's only kernels for both — generalized over any type
// exposing the Model read API (num_states/num_phils/initial/row/eaters/
// frontier).
//
// Two instantiations exist on purpose: `Model` (end_components.cpp — the
// contiguous in-RAM path) and `store::ChunkedModel` (store.cpp — the
// chunk-native path, which must produce byte-identical components without
// ever materializing a contiguous model). Quant (quant_impl.hpp) calls the
// same templates. Keeping one definition is what makes the bit-identity
// contract hold by construction.
//
// Both run sequentially at every thread count: parallel variants did not
// pay for themselves on the benchmark ledger (README, "What runs on the
// pool").
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
std::vector<EndComponent> maximal_end_components_t(const ModelT& model, std::uint64_t avoid_set) {
  const std::size_t n = model.num_states();
  // Partition ids and Tarjan indices are int32.
  GDP_CHECK_MSG(n < (std::uint64_t{1} << 31),
                "MEC decomposition supports < 2^31 states, got " << n);
  obs::Span span("mec.decompose");
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

template <class ModelT>
std::vector<bool> reachable_states_t(const ModelT& model) {
  std::vector<bool> reached(model.num_states(), false);
  std::vector<StateId> stack{model.initial()};
  reached[model.initial()] = true;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [begin, end] = model.row(s, p);
      for (const Outcome* o = begin; o != end; ++o) {
        if (!reached[o->next]) {
          reached[o->next] = true;
          stack.push_back(o->next);
        }
      }
    }
  }
  return reached;
}

}  // namespace gdp::mdp::detail
