#include "gdp/mdp/witness.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "gdp/common/check.hpp"

namespace gdp::mdp {

WitnessScheduler::WitnessScheduler(const Model& model, const StateIndex& index,
                                   const EndComponent& ec)
    : model_(model), index_(index), key_(index.key_words()) {
  GDP_CHECK_MSG(!ec.states.empty(), "witness EC is empty");
  in_ec_.assign(model.num_states(), false);
  for (StateId s : ec.states) in_ec_[s] = true;

  // Attractor policy toward the EC. Reach *probability* is often 1 from
  // everywhere (the trap is always re-buildable), which gives a greedy
  // policy no direction — so minimize the expected number of steps to the
  // EC instead (stochastic shortest path, Gauss-Seidel from above).
  constexpr double kFar = 1e15;
  std::vector<double> dist(model.num_states(), kFar);
  toward_ec_.assign(model.num_states(), -1);
  for (StateId s : ec.states) dist[s] = 0.0;

  for (int sweep = 0; sweep < 512; ++sweep) {
    double delta = 0.0;
    for (StateId s = 0; s < model.num_states(); ++s) {
      if (in_ec_[s] || model.frontier(s)) continue;
      double best = kFar;
      int best_phil = -1;
      for (int p = 0; p < model.num_phils(); ++p) {
        const auto [begin, end] = model.row(s, p);
        if (begin == end) continue;
        double acc = 1.0;
        for (const Outcome* o = begin; o != end; ++o) {
          acc += static_cast<double>(o->prob) * std::min(dist[o->next], kFar);
        }
        if (acc < best) {
          best = acc;
          best_phil = p;
        }
      }
      if (best < dist[s]) {
        delta = std::max(delta, dist[s] >= kFar ? 1.0 : dist[s] - best);
        dist[s] = best;
        toward_ec_[s] = static_cast<std::int16_t>(best_phil);
      }
    }
    if (delta < 1e-9) break;
  }
}

void WitnessScheduler::reset(const graph::Topology& t) {
  entered_ = false;
  inside_steps_ = 0;
  last_inside_pick_.assign(static_cast<std::size_t>(t.num_phils()), 0);
}

bool WitnessScheduler::usable_inside(StateId s, int phil) const {
  const auto [begin, end] = model_.row(s, phil);
  if (begin == end) return false;
  for (const Outcome* o = begin; o != end; ++o) {
    if (!in_ec_[o->next]) return false;
  }
  return true;
}

PhilId WitnessScheduler::pick(const graph::Topology& t, const sim::SimState& state,
                              const sim::RunView& view, rng::RandomSource& rng) {
  index_.codec().encode(state, key_.data());
  const std::optional<StateId> found = index_.find(key_.data());
  if (!found) {
    // Outside the explored model (possible on truncated explorations):
    // behave as a benign uniform scheduler.
    return rng.uniform_int(0, t.num_phils() - 1);
  }
  const StateId s = *found;

  if (in_component(s)) {
    entered_ = true;
    ++inside_steps_;
    // Fair rotation over the philosophers whose steps stay inside (the EC's
    // fairness property guarantees every philosopher has such actions
    // somewhere in the component; closure keeps us inside forever).
    PhilId best = kNoPhil;
    std::uint64_t best_age = 0;
    for (PhilId p = 0; p < t.num_phils(); ++p) {
      if (!usable_inside(s, p)) continue;
      const auto idx = static_cast<std::size_t>(p);
      const std::uint64_t age = view.step_index + 1 - last_inside_pick_[idx];
      if (best == kNoPhil || age > best_age) {
        best = p;
        best_age = age;
      }
    }
    GDP_DCHECK(best != kNoPhil);  // every EC state has >= 1 usable action
    if (best == kNoPhil) return rng.uniform_int(0, t.num_phils() - 1);
    last_inside_pick_[static_cast<std::size_t>(best)] = view.step_index + 1;
    return best;
  }

  // Steer toward the component with the attractor policy; if no action has
  // positive reach probability (shouldn't happen for reachable witnesses),
  // fall back to uniform.
  const std::int16_t p = toward_ec_[s];
  if (p >= 0) return p;
  return rng.uniform_int(0, t.num_phils() - 1);
}

}  // namespace gdp::mdp
