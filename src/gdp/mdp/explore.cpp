#include <cmath>

#include "gdp/common/check.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/level_explore.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/witness.hpp"

namespace gdp::mdp {

Model Model::build(int num_phils, common::GrowArray<std::uint64_t> offsets,
                   common::GrowArray<Outcome> outcomes, common::GrowArray<std::uint64_t> eaters,
                   std::vector<bool> frontier, bool truncated) {
  GDP_CHECK_MSG(num_phils > 0, "Model::build needs at least one philosopher");
  GDP_CHECK_MSG(num_phils <= 64,
                "Model::build: eater/target masks are 64-bit, so at most 64 philosophers are "
                "supported, got "
                    << num_phils);
  const std::size_t n = eaters.size();
  GDP_CHECK_MSG(n > 0, "Model::build needs at least one state");
  GDP_CHECK_MSG(frontier.size() == n, "Model::build: frontier/eaters size mismatch");
  GDP_CHECK_MSG(offsets.size() == n * static_cast<std::size_t>(num_phils) + 1,
                "Model::build: offsets must have num_states * num_phils + 1 entries, got "
                    << offsets.size());
  GDP_CHECK_MSG(offsets[0] == 0 && offsets.back() == outcomes.size(),
                "Model::build: offsets must start at 0 and end at outcomes.size()");
  for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
    GDP_CHECK_MSG(offsets[r] <= offsets[r + 1], "Model::build: offsets not monotone at row " << r);
  }
  detail::DiscoveryOrder order(n);
  std::size_t frontier_from = n;  // first frontier state, if any
  for (StateId s = 0; s < n; ++s) {
    const std::size_t base = static_cast<std::size_t>(s) * static_cast<std::size_t>(num_phils);
    const Outcome* begin = outcomes.data() + offsets[base];
    const Outcome* end = outcomes.data() + offsets[base + static_cast<std::size_t>(num_phils)];
    if (frontier[s]) {
      if (frontier_from == n) frontier_from = s;
      GDP_CHECK_MSG(begin == end, "Model::build: frontier state " << s << " must have empty rows");
    } else {
      GDP_CHECK_MSG(frontier_from == n, "Model::build: frontier is not an id tail: state "
                                            << s << " is expanded after frontier state "
                                            << frontier_from);
    }
    for (const Outcome* o = begin; o != end; ++o) {
      GDP_CHECK_MSG(o->next < n, "Model::build: outcome targets unknown state " << o->next);
      GDP_CHECK_MSG(o->prob > 0.0f && o->prob <= 1.0f,
                    "Model::build: outcome probability " << o->prob << " outside (0, 1]");
    }
    GDP_CHECK_MSG(order.feed(begin, end),
                  "Model::build: state " << s << " has no incoming outcome from a lower id");
  }
  // A model is truncated exactly when some state was never expanded; a
  // complete model with frontier states would be certified unexplored.
  GDP_CHECK_MSG(truncated == (frontier_from < n),
                "Model::build: truncated flag " << truncated << " disagrees with its "
                                                << n - frontier_from << " frontier states");
  // Rows must be distributions: the quantitative checker's soundness
  // arguments (clamps, OVI verification) assume (sub)stochastic rows.
  for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
    if (offsets[r] == offsets[r + 1]) continue;
    double mass = 0.0;
    for (std::size_t i = offsets[r]; i < offsets[r + 1]; ++i) {
      mass += static_cast<double>(outcomes[i].prob);
    }
    GDP_CHECK_MSG(std::abs(mass - 1.0) <= 1e-4,
                  "Model::build: row " << r << " probabilities sum to " << mass << ", expected 1");
  }

  Model model;
  model.num_phils_ = num_phils;
  model.offsets_ = std::move(offsets);
  model.outcomes_ = std::move(outcomes);
  model.eaters_ = std::move(eaters);
  model.frontier_ = std::move(frontier);
  model.truncated_ = truncated;
  return model;
}

Model Model::build(int num_phils, const std::vector<std::uint64_t>& offsets,
                   const std::vector<Outcome>& outcomes, const std::vector<std::uint64_t>& eaters,
                   std::vector<bool> frontier, bool truncated) {
  return build(num_phils, common::GrowArray<std::uint64_t>(offsets.data(), offsets.size()),
               common::GrowArray<Outcome>(outcomes.data(), outcomes.size()),
               common::GrowArray<std::uint64_t>(eaters.data(), eaters.size()), std::move(frontier),
               truncated);
}

Model explore(const algos::Algorithm& algo, const graph::Topology& t, CheckOptions options) {
  detail::LevelExplorer explorer(algo, t);
  explorer.run(options.max_states, options.threads);
  return explorer.take_model();
}

Model explore_indexed(const algos::Algorithm& algo, const graph::Topology& t,
                      StateIndex& index_out, CheckOptions options) {
  detail::LevelExplorer explorer(algo, t);
  explorer.run(options.max_states, options.threads);
  return explorer.take_model(&index_out);
}

}  // namespace gdp::mdp
