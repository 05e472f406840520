// Compatibility forwarding for verifybench/verifybench.cpp, the only file
// allowed to include this header. The checker has one front-end in
// gdp::mdp (CheckOptions, explore, check_fair_progress) and options-free
// MEC / verdict functions; this maps the harness's older spellings onto
// it (reachability is all-true: models are rooted, see Model). It goes
// away when the harness migrates.
#pragma once

#include <cstdint>
#include <vector>

#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/fair_progress_impl.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/store/store.hpp"

namespace gdp::mdp::par {

using mdp::CheckOptions;
using mdp::explore;

inline std::vector<bool> reachable_states(const Model& model, const CheckOptions&) {
  return std::vector<bool>(model.num_states(), true);
}
inline std::vector<EndComponent> maximal_end_components(const Model& model,
                                                        std::uint64_t avoid_set,
                                                        const CheckOptions&) {
  return mdp::maximal_end_components(model, avoid_set);
}
inline FairProgressResult check_fair_progress(const Model& model, std::uint64_t set_mask,
                                              const CheckOptions&) {
  return mdp::check_fair_progress(model, set_mask);
}

}  // namespace gdp::mdp::par

namespace gdp::mdp::store {

inline std::vector<bool> reachable_states(const ChunkedModel& model, const CheckOptions&) {
  return std::vector<bool>(model.num_states(), true);
}
inline std::vector<EndComponent> maximal_end_components(const ChunkedModel& model,
                                                        std::uint64_t avoid_set,
                                                        const CheckOptions&) {
  return maximal_end_components(model, avoid_set);
}
inline FairProgressResult check_fair_progress(const ChunkedModel& model, std::uint64_t set_mask,
                                              const CheckOptions&) {
  return check_fair_progress(model, set_mask);
}

}  // namespace gdp::mdp::store

namespace gdp::mdp::detail {

template <class ModelT>
FairProgressResult verdict_from_mecs_t(const ModelT& model, std::uint64_t set_mask,
                                       const std::vector<EndComponent>& mecs,
                                       const std::vector<bool>& /*reached*/) {
  return verdict_from_mecs_t(model, set_mask, mecs);
}

}  // namespace gdp::mdp::detail
