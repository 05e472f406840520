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
  if (witness) out << ", witness EC of " << witness->states.size() << " states";
  return out.str();
}

FairProgressResult check_fair_progress(const Model& model, std::uint64_t set_mask) {
  return detail::check_fair_progress_t(model, set_mask);
}

FairProgressResult check_lockout_freedom(const Model& model, PhilId victim) {
  GDP_CHECK_MSG(victim >= 0 && victim < model.num_phils(),
                "lockout victim " << victim << " is not one of the model's " << model.num_phils()
                                  << " philosophers");
  return check_fair_progress(model, std::uint64_t{1} << victim);
}

FairProgressResult check_fair_progress(const algos::Algorithm& algo, const graph::Topology& t,
                                       CheckOptions options, std::uint64_t set_mask) {
  const Model model = explore(algo, t, options);
  return check_fair_progress(model, set_mask);
}

}  // namespace gdp::mdp
