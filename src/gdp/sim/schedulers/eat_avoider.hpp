// EatAvoider — a *generic* fair malicious adversary.
//
// It formalizes the technique behind the paper's Theorem 1/2 schedulers
// without being hand-scripted to one topology: at every step it schedules a
// philosopher whose atomic step cannot complete a meal, preferring moves
// that keep contested forks occupied ("rescues": letting a committed sharer
// take the fork an endangered philosopher is one step away from acquiring —
// the multi-sharer refresh that only generalized topologies allow, and the
// exact reason Lemma 1 of Lehmann & Rabin fails off the classic ring).
//
// Fairness is enforced by construction: any philosopher whose scheduling
// gap reaches `hard_cap` is scheduled regardless of safety, so every
// infinite run is fair (gap bounded by hard_cap). The interesting output is
// therefore *whether the adversary is ever forced to allow a meal*:
//   * LR1 on the classic ring      -> meals happen (Lehmann-Rabin correct);
//   * LR1/LR2 on Theorem-1/2 graphs -> no-progress runs with high frequency;
//   * GDP1/GDP2 anywhere           -> meals always happen (Theorems 3/4).
#pragma once

#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/sim/scheduler.hpp"

namespace gdp::sim {

class EatAvoider final : public Scheduler {
 public:
  struct Config {
    /// Soft gap after which a philosopher gets priority among safe moves.
    std::uint64_t soft_window = 0;  // 0 = 16 * n
    /// Hard gap at which the philosopher is scheduled even if it will eat.
    std::uint64_t hard_cap = 0;  // 0 = 64 * n
  };

  /// The adversary must evaluate the algorithm's step function to know which
  /// moves are safe — "complete information" in the sense of §2.
  explicit EatAvoider(const algos::Algorithm& algo) : EatAvoider(algo, Config{}) {}
  EatAvoider(const algos::Algorithm& algo, Config config);

  std::string name() const override { return "eat-avoider"; }
  void reset(const graph::Topology& t) override;
  PhilId pick(const graph::Topology& t, const SimState& state, const RunView& view,
              rng::RandomSource& rng) override;

  /// Times the hard cap forced a potentially meal-completing step.
  std::uint64_t forced_unsafe_picks() const { return forced_unsafe_; }

 private:
  const algos::Algorithm& algo_;
  Config config_;
  std::uint64_t soft_window_ = 0;
  std::uint64_t hard_cap_ = 0;
  std::uint64_t forced_unsafe_ = 0;

  /// What one philosopher's pending step can do.
  struct Lookahead {
    bool may_eat = false;   // some branch completes a meal
    bool self_loop = true;  // every branch leaves the state unchanged
  };
  /// pick()'s working storage, reused so a pick allocates nothing once warm.
  std::vector<Lookahead> lookahead_;
  SimState scratch_;
};

}  // namespace gdp::sim
