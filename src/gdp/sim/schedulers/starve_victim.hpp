// StarveVictim — the §5 lockout adversary against GDP1.
//
// The paper's scenario: philosophers P1, P2 share fork f whose nr is smaller
// than P1's other fork g; P1 therefore always selects g first, and the
// scheduler lets P1 attempt his second fork f only at moments when P2 holds
// it. This adversary generalizes the idea: it designates a victim and
// schedules the victim only when the victim's step cannot complete a meal
// (everyone else runs under a maximally-fair policy). A hard cap keeps the
// schedule fair: the victim is forcibly scheduled once its gap reaches the
// cap, so starvation shows up as a *huge-but-bounded hunger span* under
// GDP1, while GDP2's courtesy condition (Theorem 4) caps the victim's
// hunger regardless of the adversary.
#pragma once

#include "gdp/algos/algorithm.hpp"
#include "gdp/sim/scheduler.hpp"

namespace gdp::sim {

class StarveVictim final : public Scheduler {
 public:
  struct Config {
    PhilId victim = 0;
    /// Hard scheduling-gap cap for the victim (0 = 256 * n).
    std::uint64_t hard_cap = 0;
  };

  explicit StarveVictim(const algos::Algorithm& algo) : StarveVictim(algo, Config{}) {}
  StarveVictim(const algos::Algorithm& algo, Config config);

  std::string name() const override { return "starve-victim"; }
  void reset(const graph::Topology& t) override;
  PhilId pick(const graph::Topology& t, const SimState& state, const RunView& view,
              rng::RandomSource& rng) override;

  PhilId victim() const { return config_.victim; }

 private:
  const algos::Algorithm& algo_;
  Config config_;
  std::uint64_t hard_cap_ = 0;
  /// pick()'s lookahead scratch, reused so a pick allocates nothing once warm.
  SimState scratch_;
};

}  // namespace gdp::sim
