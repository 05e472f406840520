// Template definition of the verdict logic, generalized over the Model read
// API. Instantiated for `Model` (fair_progress.cpp) and
// `store::ChunkedModel` (store.cpp), and reused by quant::analyze over the
// MECs it already holds: the verdict, the witness EC and every count come
// out identical on all paths because this is the one definition.
#pragma once

#include <cstdint>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/mdp/end_components_impl.hpp"
#include "gdp/mdp/fair_progress.hpp"

namespace gdp::mdp::detail {

/// The one precondition on a progress / target mask (bit p = philosopher
/// p): it must name at least one of the model's philosophers. Masks are
/// 64-bit, so models past 64 philosophers are refused too (Model
/// construction refuses them; this guards hand-built callers).
template <class ModelT>
void require_phil_mask(const ModelT& model, std::uint64_t mask) {
  const int phils = model.num_phils();
  GDP_CHECK_MSG(phils <= 64, "target masks are 64-bit, so at most 64 philosophers are "
                             "supported, got "
                                 << phils);
  const std::uint64_t all = phils >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << phils) - 1;
  GDP_CHECK_MSG((mask & all) != 0,
                "mask " << mask << " names none of the model's " << phils << " philosophers");
}

/// The witness is the first fair MEC (models are rooted, see Model).
template <class ModelT>
FairProgressResult verdict_from_mecs_t(const ModelT& model, std::uint64_t set_mask,
                                       const std::vector<EndComponent>& mecs) {
  FairProgressResult result;
  result.avoid_set = set_mask;
  result.num_states = model.num_states();
  result.num_mecs = mecs.size();

  for (const EndComponent& mec : mecs) {
    if (!mec.fair(model.num_phils())) continue;
    ++result.num_fair_mecs;
    if (!result.witness) result.witness = mec;
  }

  if (result.witness) {
    result.verdict = Verdict::kProgressFails;
  } else if (model.truncated()) {
    result.verdict = Verdict::kUnknownTruncated;
  } else {
    result.verdict = Verdict::kProgressCertain;
  }
  return result;
}

template <class ModelT>
FairProgressResult check_fair_progress_t(const ModelT& model, std::uint64_t set_mask) {
  require_phil_mask(model, set_mask);
  return verdict_from_mecs_t(model, set_mask, maximal_end_components_t(model, set_mask));
}

}  // namespace gdp::mdp::detail
