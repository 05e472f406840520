#include "gdp/sim/schedulers/eat_avoider.hpp"

#include <algorithm>

#include "gdp/common/check.hpp"

namespace gdp::sim {
namespace {

/// Does this branch complete a meal?
bool completes_meal(const StepEvent& event, const SimState& next) {
  return event.kind == EventKind::kTookSecond ||
         (event.kind == EventKind::kGranted &&
          std::any_of(next.phils.begin(), next.phils.end(),
                      [](const PhilState& ps) { return ps.phase == Phase::kEating; }));
}

}  // namespace

EatAvoider::EatAvoider(const algos::Algorithm& algo, Config config)
    : algo_(algo), config_(config) {}

void EatAvoider::reset(const graph::Topology& t) {
  const auto n = static_cast<std::uint64_t>(t.num_phils());
  soft_window_ = config_.soft_window != 0 ? config_.soft_window : 16 * n;
  hard_cap_ = config_.hard_cap != 0 ? config_.hard_cap : 64 * n;
  GDP_CHECK_MSG(soft_window_ < hard_cap_, "EatAvoider: soft_window must be < hard_cap");
  forced_unsafe_ = 0;
}

PhilId EatAvoider::pick(const graph::Topology& t, const SimState& state, const RunView& view,
                        rng::RandomSource& /*rng*/) {
  const int n = t.num_phils();

  // Evaluate every philosopher's pending step once, through a sink that
  // keeps only the two flags the policy reads.
  lookahead_.assign(static_cast<std::size_t>(n), Lookahead{});
  Lookahead* look = nullptr;
  algos::SinkFn probe([&](double, const StepEvent& event, const SimState& next) {
    look->may_eat = look->may_eat || completes_meal(event, next);
    look->self_loop = look->self_loop && (&next == &state || next == state);
  });
  for (PhilId p = 0; p < n; ++p) {
    look = &lookahead_[static_cast<std::size_t>(p)];
    algo_.step(t, state, p, scratch_, probe);
  }

  auto gap_of = [&](PhilId p) {
    const auto idx = static_cast<std::size_t>(p);
    if ((*view.steps_of)[idx] == 0) return view.step_index + 1;  // never scheduled
    return view.step_index - (*view.last_scheduled)[idx];
  };

  // 1. Fairness first: a philosopher at the hard cap runs now, no matter what.
  for (PhilId p = 0; p < n; ++p) {
    if (gap_of(p) >= hard_cap_) {
      if (lookahead_[static_cast<std::size_t>(p)].may_eat) ++forced_unsafe_;
      return p;
    }
  }

  // Forks that endangered philosophers (one free fork away from a meal) need
  // taken: occupying them is the adversary's best move.
  std::uint64_t wanted_forks = 0;
  for (PhilId p = 0; p < n; ++p) {
    const PhilState& ps = state.phil(p);
    if (ps.phase == Phase::kTrySecond || ps.phase == Phase::kRenumber) {
      const ForkId second = t.other_fork(p, t.fork_of(p, ps.committed));
      if (state.fork(second).free() && second < 64) {
        wanted_forks |= (std::uint64_t{1} << second);
      }
    }
  }

  // 2. Among safe philosophers, prefer: (a) rescuers that occupy a wanted
  // fork, (b) parked self-loops past the soft window, (c) anyone else —
  // always breaking ties toward the largest gap (fairness pressure).
  PhilId best = kNoPhil;
  int best_score = -1;
  std::uint64_t best_gap = 0;
  for (PhilId p = 0; p < n; ++p) {
    const Lookahead& la = lookahead_[static_cast<std::size_t>(p)];
    if (la.may_eat) continue;

    int score = 1;
    const PhilState& ps = state.phil(p);
    if (ps.phase == Phase::kCommit) {
      const ForkId f = t.fork_of(p, ps.committed);
      if (state.fork(f).free() && f < 64 && ((wanted_forks >> f) & 1u)) {
        score = 3;  // rescuer: takes a fork somebody is about to eat with
      }
    }
    if (score == 1 && la.self_loop && gap_of(p) >= soft_window_) {
      score = 2;  // parked busy-waiter overdue for a fairness step
    }

    const std::uint64_t gap = gap_of(p);
    if (score > best_score || (score == best_score && gap > best_gap)) {
      best = p;
      best_score = score;
      best_gap = gap;
    }
  }
  if (best != kNoPhil) return best;

  // 3. Everyone's step may eat: concede the meal where fairness needs it most.
  PhilId victim = 0;
  std::uint64_t max_gap = 0;
  for (PhilId p = 0; p < n; ++p) {
    if (gap_of(p) >= max_gap) {
      max_gap = gap_of(p);
      victim = p;
    }
  }
  ++forced_unsafe_;
  return victim;
}

}  // namespace gdp::sim
