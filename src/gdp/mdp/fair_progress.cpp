#include "gdp/mdp/fair_progress.hpp"

#include <sstream>

#include "gdp/mdp/fair_progress_impl.hpp"

namespace gdp::mdp {

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kProgressCertain: return "progress w.p. 1 (certified)";
    case Verdict::kProgressFails: return "NO progress (fair trap exists)";
    case Verdict::kUnknownTruncated: return "unknown (state space truncated)";
  }
  return "?";
}

std::string FairProgressResult::summary() const {
  std::ostringstream out;
  out << to_string(verdict) << " — " << num_states << " states, " << num_mecs
      << " restricted MECs, " << num_fair_mecs << " fair";
  if (witness_size != 0) out << ", witness EC of " << witness_size << " states";
  return out.str();
}

FairProgressResult check_fair_progress(const Model& model, std::uint64_t set_mask) {
  return detail::verdict_from_mecs_t(model, set_mask, maximal_end_components(model, set_mask),
                                     reachable_states(model));
}

FairProgressResult check_lockout_freedom(const Model& model, PhilId victim) {
  return check_fair_progress(model, std::uint64_t{1} << victim);
}

FairProgressResult check_fair_progress(const algos::Algorithm& algo, const graph::Topology& t,
                                       CheckOptions options, std::uint64_t set_mask) {
  const Model model = explore(algo, t, options);
  return check_fair_progress(model, set_mask);
}

}  // namespace gdp::mdp
