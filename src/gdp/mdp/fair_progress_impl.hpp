// Template definition of the verdict logic over an already-computed MEC
// decomposition, generalized over the Model read API. Instantiated for
// `Model` (fair_progress.cpp) and `store::ChunkedModel` (store.cpp):
// the verdict, the witness choice and every count come out identical on
// both paths because this is the one definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"

namespace gdp::mdp::detail {

template <class ModelT>
FairProgressResult verdict_from_mecs_t(const ModelT& model, std::uint64_t set_mask,
                                       const std::vector<EndComponent>& mecs,
                                       const std::vector<bool>& reached) {
  FairProgressResult result;
  result.avoid_set = set_mask;
  result.num_states = model.num_states();
  result.num_mecs = mecs.size();

  for (const EndComponent& mec : mecs) {
    if (!mec.fair(model.num_phils())) continue;
    ++result.num_fair_mecs;
    const bool reachable = std::any_of(mec.states.begin(), mec.states.end(),
                                       [&](StateId s) { return reached[s]; });
    if (reachable && result.witness_size == 0) {
      result.witness_size = mec.states.size();
      result.witness_state = mec.states.front();
    }
  }

  if (result.witness_size != 0) {
    result.verdict = Verdict::kProgressFails;
  } else if (model.truncated()) {
    result.verdict = Verdict::kUnknownTruncated;
  } else {
    result.verdict = Verdict::kProgressCertain;
  }
  return result;
}

}  // namespace gdp::mdp::detail
