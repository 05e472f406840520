// Adversary synthesis: turn a model-checker witness (a fair end component
// avoiding the eating set) into an *executable scheduler*.
//
// The paper constructs its winning adversaries by hand (the §3 example,
// Figures 2-3). check_fair_progress finds such adversaries automatically as
// fair ECs; WitnessScheduler closes the loop by playing one back against
// the live simulator:
//
//   * outside the component it follows a max-probability attractor policy
//     toward the EC (value-iterated over the explored model);
//   * inside, it only schedules philosophers whose step distributions stay
//     within the EC (closure makes that invariant under all random
//     outcomes), rotating among them for fairness.
//
// Once the run enters the EC it never eats again — an empirical execution
// of the machine-found counterexample. Used by tests and bench E5.
#pragma once

#include <cstdint>
#include <vector>

#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/sim/scheduler.hpp"

namespace gdp::mdp {

/// explore() variant that also returns the packed-key -> id map (plus the
/// codec that produced the keys, see gdp/mdp/key.hpp), so live simulator
/// configurations can be located inside the model.
Model explore_indexed(const algos::Algorithm& algo, const graph::Topology& t,
                      StateIndex& index_out, CheckOptions options = {});

class WitnessScheduler final : public sim::Scheduler {
 public:
  /// `model`/`index` from explore_indexed; `ec` a (fair) EC of that model.
  WitnessScheduler(const Model& model, const StateIndex& index, const EndComponent& ec);

  std::string name() const override { return "witness"; }
  void reset(const graph::Topology& t) override;
  PhilId pick(const graph::Topology& t, const sim::SimState& state, const sim::RunView& view,
              rng::RandomSource& rng) override;

  /// True once the run has entered the witness component (from then on no
  /// philosopher in the avoided set ever eats).
  bool entered_component() const { return entered_; }
  /// Steps spent inside the component so far.
  std::uint64_t steps_inside() const { return inside_steps_; }

 private:
  bool in_component(StateId s) const { return in_ec_[s]; }
  /// Action keeps every outcome inside the EC?
  bool usable_inside(StateId s, int phil) const;

  const Model& model_;
  const StateIndex& index_;
  std::vector<bool> in_ec_;
  /// Greedy attractor: best philosopher to schedule toward the EC.
  std::vector<std::int16_t> toward_ec_;
  bool entered_ = false;
  std::uint64_t inside_steps_ = 0;
  PackedKey key_;
  std::vector<std::uint64_t> last_inside_pick_;
};

}  // namespace gdp::mdp
