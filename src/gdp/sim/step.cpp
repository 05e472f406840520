#include "gdp/sim/step.hpp"

#include "gdp/common/strings.hpp"

namespace gdp::sim {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kStartTrying: return "start-trying";
    case EventKind::kStillThinking: return "still-thinking";
    case EventKind::kRegistered: return "registered";
    case EventKind::kChose: return "chose";
    case EventKind::kTookFirst: return "took-first";
    case EventKind::kBlockedFirst: return "blocked-first";
    case EventKind::kRenumbered: return "renumbered";
    case EventKind::kNrDistinct: return "nr-distinct";
    case EventKind::kTookSecond: return "took-second";
    case EventKind::kFailedSecond: return "failed-second";
    case EventKind::kBlockedSecond: return "blocked-second";
    case EventKind::kFinishedEating: return "finished-eating";
    case EventKind::kWaiting: return "waiting";
    case EventKind::kGranted: return "granted";
  }
  return "?";
}

std::string StepEvent::to_string() const {
  std::string out = sim::to_string(kind);
  if (kind == EventKind::kChose) {
    out += std::string("(") + gdp::to_string(side) + ")";
  }
  if (fork != kNoFork) out += " " + fork_name(fork);
  if (kind == EventKind::kRenumbered) out += " <- " + std::to_string(value);
  return out;
}

}  // namespace gdp::sim
