// The interleaving simulator: adversary picks a philosopher, the algorithm
// yields the probabilistic branches of that philosopher's atomic step, the
// engine samples one — the operational semantics of the paper's
// probabilistic-automaton model (§2).
//
// The engine also measures everything the experiments need: meals (global
// and per philosopher), time-to-first-eat, hunger spans (lockout metrics),
// scheduling gaps, and it detects true deadlocks (every philosopher's next
// step is a pure busy-wait self-loop — possible only for the hold-and-wait
// baselines).
//
// The run steps the algorithm through its sink form (Algorithm::step over a
// scratch state), as the explorer does: the branches land in a reused buffer
// whose slots keep their SimState storage, the sampled successor is swapped
// into the current state, and the deadlock probe steps through the same
// buffer. After warm-up a run allocates nothing per step, unless it records
// a trace or checks invariants. The lookahead adversaries (EatAvoider,
// StarveVictim) step through a sink over their own scratch in the same way.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/topology.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/sim/scheduler.hpp"
#include "gdp/sim/state.hpp"
#include "gdp/sim/step.hpp"

namespace gdp::sim {

inline constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

struct EngineConfig {
  /// Hard step bound for the run.
  std::uint64_t max_steps = 1'000'000;
  /// Stop once this many meals completed (0 = don't stop on meals).
  std::uint64_t stop_after_meals = 0;
  /// Stop once every philosopher has eaten at least once.
  bool stop_when_all_ate = false;
  /// Record the event trace (step, philosopher, event).
  bool record_trace = false;
  /// Validate structural invariants after every step (tests; slow).
  bool check_invariants = false;
};

struct TraceEntry {
  std::uint64_t step = 0;
  PhilId phil = kNoPhil;
  StepEvent event;
};

struct RunResult {
  std::uint64_t steps = 0;

  /// A "meal" is counted when a philosopher takes its second fork.
  std::uint64_t total_meals = 0;
  std::vector<std::uint64_t> meals_of;

  /// Step index of the first meal overall / per philosopher (kNever if none).
  std::uint64_t first_meal_step = kNever;
  std::vector<std::uint64_t> first_meal_of;

  /// Longest hungry span (steps between starting to try and taking the
  /// second fork), per philosopher; an unfinished hunger at run end counts.
  std::vector<std::uint64_t> max_hunger_of;

  /// Largest number of steps from one step of a philosopher to its next,
  /// where a philosopher's first step counts from step 0. A philosopher
  /// that is never scheduled adds nothing, and the stretch from a
  /// philosopher's last step to the end of the run is not counted, so a
  /// small value does not show that the run was fair: a philosopher
  /// starved from some point on goes unseen.
  std::uint64_t max_sched_gap = 0;

  /// True if the run ended in a state where every philosopher's step is a
  /// no-op self-loop (circular hold-and-wait).
  bool deadlocked = false;

  /// Empty if invariants held (when check_invariants was on).
  std::string invariant_violation;

  SimState final_state;
  std::vector<TraceEntry> trace;

  std::uint64_t max_hunger() const;
  bool everyone_ate() const;
  bool progressed() const { return total_meals > 0; }
};

/// Runs `algo` on `t` under `sched`, sampling with `rng`. The same seed,
/// scheduler and config reproduce the identical run.
RunResult run(const algos::Algorithm& algo, const graph::Topology& t, Scheduler& sched,
              rng::RandomSource& rng, const EngineConfig& config);

/// Samples one branch of a step's distribution using `rng`; run() and the
/// replayers share it, so they make the same draws in the same order. Reads
/// each branch's prob and event only, never its `next`.
const Branch& sample_branch(std::span<const Branch> branches, rng::RandomSource& rng);

}  // namespace gdp::sim
