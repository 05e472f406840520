// Maximal end-component (MEC) decomposition of the non-eating fragment.
//
// An end component is a set of states plus, per state, a non-empty set of
// actions such that (i) every probabilistic outcome of a chosen action stays
// inside the set (closure) and (ii) the induced graph is strongly connected.
// Under ANY adversary, the limit behaviour of an infinite run is a.s. an end
// component (de Alfaro); under a FAIR adversary it must moreover contain an
// action of every philosopher. Hence:
//
//   "some fair adversary avoids eating forever (with prob. 1 once inside)"
//       <=>  a reachable MEC of the non-E fragment has actions of ALL
//            philosophers ("fair EC").
// Models are rooted by construction (see Model), so every MEC is
// reachable and any fair MEC is a witness: no check sweeps reachability.
//
// This is the mechanical core behind reproducing Theorems 1-4: LR1/LR2
// exhibit reachable fair ECs exactly on the paper's counterexample
// topologies; GDP1/GDP2 exhibit none (progress with probability 1).
#pragma once

#include <cstdint>
#include <vector>

#include "gdp/mdp/model.hpp"

namespace gdp::mdp {

struct EndComponent {
  std::vector<StateId> states;
  /// Philosophers with at least one usable action inside the component
  /// (bitmask; phil p set iff bit p). Fairness needs all n bits.
  std::uint64_t phil_mask = 0;

  bool fair(int num_phils) const {
    return phil_mask == (num_phils >= 64 ? ~std::uint64_t{0}
                                         : ((std::uint64_t{1} << num_phils) - 1));
  }
};

/// All MECs of the sub-MDP restricted to the fully-expanded states where no
/// philosopher of `avoid_set` (bitmask) eats. Actions whose outcomes can
/// leave that restriction are discarded, so every returned component is
/// genuinely closed even on truncated models.
///
/// avoid_set semantics (the paper's §2 definitions):
///   * all philosophers  -> progress:            T --F-->_1 E
///   * a subset S        -> progress wrt S       (Theorems 1/2 deny it for
///                          the ring philosophers H)
///   * a singleton {i}   -> lockout-freedom of i: T_i --F-->_1 E_i
std::vector<EndComponent> maximal_end_components(const Model& model,
                                                 std::uint64_t avoid_set = ~std::uint64_t{0});

}  // namespace gdp::mdp
