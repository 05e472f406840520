// One atomic step of one philosopher = a probability distribution over
// successor configurations (a transition of the Segala/Lynch probabilistic
// automaton, §2). Algorithms *enumerate* the branches; the simulator samples
// one, the MDP model checker keeps them all.
#pragma once

#include <cstdint>
#include <string>

#include "gdp/common/ids.hpp"
#include "gdp/sim/state.hpp"

namespace gdp::sim {

enum class EventKind : std::uint8_t {
  kStartTrying,     // think ended; entering the trying section
  kStillThinking,   // think step did not terminate (Coin mode)
  kRegistered,      // LR2/GDP2: inserted id into both request lists
  kChose,           // committed to a first fork (side in `side`)
  kTookFirst,       // test-and-set succeeded on the first fork
  kBlockedFirst,    // first fork taken; busy-wait step
  kRenumbered,      // GDP: wrote random nr (value in `value`) to held fork
  kNrDistinct,      // GDP: nr values differ; no renumbering needed
  kTookSecond,      // got both forks -> eating
  kFailedSecond,    // second fork taken; released first, back to choosing
  kBlockedSecond,   // hold-and-wait baselines: still waiting for the second
  kFinishedEating,  // released everything, back to thinking
  kWaiting,         // baselines: waiting on arbiter grant / ticket
  kGranted,         // baselines: request granted
};

const char* to_string(EventKind kind);

/// What a step did, for traces and assertions.
struct StepEvent {
  EventKind kind = EventKind::kStillThinking;
  Side side = Side::kLeft;  // for kChose
  ForkId fork = kNoFork;    // fork acted on, if any
  int value = 0;            // for kRenumbered

  std::string to_string() const;
};

/// One probabilistic branch of a step.
struct Branch {
  double prob = 1.0;
  StepEvent event;
  SimState next;
};

}  // namespace gdp::sim
