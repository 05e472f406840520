#include "gdp/sim/schedulers/starve_victim.hpp"

#include "gdp/common/check.hpp"

namespace gdp::sim {

StarveVictim::StarveVictim(const algos::Algorithm& algo, Config config)
    : algo_(algo), config_(config) {}

void StarveVictim::reset(const graph::Topology& t) {
  GDP_CHECK_MSG(config_.victim >= 0 && config_.victim < t.num_phils(),
                "StarveVictim: victim " << config_.victim << " out of range");
  hard_cap_ =
      config_.hard_cap != 0 ? config_.hard_cap : 256 * static_cast<std::uint64_t>(t.num_phils());
}

PhilId StarveVictim::pick(const graph::Topology& t, const SimState& state, const RunView& view,
                          rng::RandomSource& /*rng*/) {
  const PhilId victim = config_.victim;
  const auto vidx = static_cast<std::size_t>(victim);

  const std::uint64_t victim_gap = (*view.steps_of)[vidx] == 0
                                       ? view.step_index + 1
                                       : view.step_index - (*view.last_scheduled)[vidx];

  // Schedule the victim when it is harmless (cannot complete a meal this
  // step) and overdue relative to the others, or when fairness forces it.
  bool victim_may_eat = false;
  algos::SinkFn probe([&](double, const StepEvent& event, const SimState& next) {
    victim_may_eat = victim_may_eat || event.kind == EventKind::kTookSecond ||
                     (event.kind == EventKind::kGranted &&
                      next.phil(victim).phase == Phase::kEating);
  });
  algo_.step(t, state, victim, scratch_, probe);

  if (victim_gap >= hard_cap_) return victim;  // fairness wins; meal may happen
  if (!victim_may_eat && victim_gap >= static_cast<std::uint64_t>(2 * t.num_phils())) {
    return victim;  // harmless step: burn the victim's fairness obligation
  }

  // Everyone else: longest-waiting (maximally fair among non-victims).
  PhilId best = kNoPhil;
  std::uint64_t best_key = 0;
  for (PhilId p = 0; p < t.num_phils(); ++p) {
    if (p == victim) continue;
    const auto idx = static_cast<std::size_t>(p);
    const std::uint64_t key = (*view.steps_of)[idx] == 0
                                  ? view.step_index + 1
                                  : view.step_index - (*view.last_scheduled)[idx];
    if (best == kNoPhil || key > best_key) {
      best = p;
      best_key = key;
    }
  }
  return best == kNoPhil ? victim : best;
}

}  // namespace gdp::sim
