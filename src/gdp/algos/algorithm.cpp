#include "gdp/algos/algorithm.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::Branch;
using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

void Algorithm::validate_config() const {
  // Written so that NaN fails every comparison and is rejected.
  GDP_CHECK_MSG(config_.p_left >= 0.0 && config_.p_left <= 1.0,
                "p_left must lie in [0, 1], got " << config_.p_left);
  if (config_.think == ThinkMode::kCoin) {
    GDP_CHECK_MSG(config_.think_coin > 0.0 && config_.think_coin <= 1.0,
                  "think_coin must lie in (0, 1], got " << config_.think_coin);
  }
  GDP_CHECK_MSG(config_.m >= 0, "m must be >= 0 (0 = automatic), got " << config_.m);
  if (uses_numbers()) {
    GDP_CHECK_MSG(config_.m <= 0xffff, "m=" << config_.m << " exceeds the nr field's range");
  }
}

void Algorithm::validate(const graph::Topology& t) const {
  validate_config();
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

std::vector<Branch> Algorithm::step(const graph::Topology& t, const SimState& state,
                                    PhilId p) const {
  std::vector<Branch> branches;
  SimState scratch;
  SinkFn collect([&](double prob, const StepEvent& event, const SimState& next) {
    // step() rebuilds the scratch before each branch it builds there, so a
    // successor in the scratch moves into the branch instead of being copied.
    if (&next == &scratch) {
      branches.push_back(Branch{prob, event, std::move(scratch)});
    } else {
      branches.push_back(Branch{prob, event, next});
    }
  });
  step(t, state, p, scratch, collect);
  return branches;
}

void Algorithm::think_step(const SimState& state, PhilId p, Phase first_phase,
                           SimState& scratch, BranchSink& sink) const {
  GDP_DCHECK(state.phil(p).phase == Phase::kThinking);
  scratch = state;
  scratch.phil(p).phase = first_phase;
  const StepEvent woke{EventKind::kStartTrying, Side::kLeft, kNoFork, 0};

  if (config_.think == ThinkMode::kHungry || config_.think_coin >= 1.0) {
    sink(1.0, woke, scratch);
    return;
  }
  GDP_DCHECK(config_.think_coin > 0.0);
  // Coin mode: geometric thinking time.
  sink(config_.think_coin, woke, scratch);
  sink(1.0 - config_.think_coin, StepEvent{EventKind::kStillThinking}, state);
}

}  // namespace gdp::algos
