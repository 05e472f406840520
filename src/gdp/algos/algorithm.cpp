#include "gdp/algos/algorithm.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::Branch;
using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

void Algorithm::validate(const graph::Topology& t) const {
  // Written so that NaN fails every comparison and is rejected.
  GDP_CHECK_MSG(config_.p_left >= 0.0 && config_.p_left <= 1.0,
                "p_left must lie in [0, 1], got " << config_.p_left);
  if (config_.think == ThinkMode::kCoin) {
    GDP_CHECK_MSG(config_.think_coin > 0.0 && config_.think_coin <= 1.0,
                  "think_coin must lie in (0, 1], got " << config_.think_coin);
  }
  if (uses_books()) {
    GDP_CHECK_MSG(t.max_degree() <= 64,
                  name() << " keeps per-sharer request bits; fork degree must be <= 64, got "
                         << t.max_degree());
  }
  if (config_.m != 0) {
    GDP_CHECK_MSG(config_.m >= t.num_forks(),
                  "GDP requires m >= k: m=" << config_.m << ", k=" << t.num_forks());
  }
  if (uses_numbers()) (void)effective_m(t);  // throws unless m fits the nr field
}

int Algorithm::effective_m(const graph::Topology& t) const {
  const int m = config_.m != 0 ? config_.m : t.num_forks();
  GDP_CHECK_MSG(m <= 0xffff, "m=" << m << " exceeds the nr field's range");
  return m;
}

sim::SimState Algorithm::initial_state(const graph::Topology& t) const {
  validate(t);
  SimState state;
  state.forks.assign(static_cast<std::size_t>(t.num_forks()), sim::ForkState{});
  state.phils.assign(static_cast<std::size_t>(t.num_phils()), sim::PhilState{});
  if (uses_books()) {
    for (ForkId f = 0; f < t.num_forks(); ++f) {
      state.fork(f).use_rank.assign(static_cast<std::size_t>(t.degree(f)), 0);
    }
  }
  init_aux(state, t);
  return state;
}

std::vector<Branch> Algorithm::think_step(const SimState& state, PhilId p,
                                          Phase first_phase) const {
  GDP_DCHECK(state.phil(p).phase == Phase::kThinking);
  SimState awake = state;
  awake.phil(p).phase = first_phase;
  StepEvent woke{EventKind::kStartTrying, Side::kLeft, kNoFork, 0};

  if (config_.think == ThinkMode::kHungry || config_.think_coin >= 1.0) {
    std::vector<Branch> branches;
    branches.push_back(deterministic(std::move(awake), woke));
    return branches;
  }
  GDP_DCHECK(config_.think_coin > 0.0);
  // Coin mode: geometric thinking time.
  std::vector<Branch> branches;
  branches.push_back(Branch{config_.think_coin, woke, std::move(awake)});
  branches.push_back(
      Branch{1.0 - config_.think_coin, StepEvent{EventKind::kStillThinking}, state});
  return branches;
}

}  // namespace gdp::algos
