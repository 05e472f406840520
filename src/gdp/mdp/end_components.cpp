#include "gdp/mdp/end_components.hpp"

#include "gdp/mdp/end_components_impl.hpp"

namespace gdp::mdp {

// The algorithm lives in end_components_impl.hpp as a template over the Model
// read API; this translation unit instantiates it for the contiguous Model.
// store.cpp instantiates the same definition for store::ChunkedModel, which
// is what makes chunk-native components byte-identical by construction.

std::vector<EndComponent> maximal_end_components(const Model& model, std::uint64_t avoid_set) {
  return detail::maximal_end_components_t(model, avoid_set);
}

}  // namespace gdp::mdp
