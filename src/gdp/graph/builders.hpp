// Ready-made topologies.
//
// Includes every system the paper draws or uses in a proof:
//   * classic_ring      — Dijkstra's table (the setting of Lehmann & Rabin)
//   * fig1a..fig1d      — the four example systems of Figure 1
//   * ring_with_chord / ring_with_pendant — the Theorem 1 premise (a ring
//                         with a node of degree >= 3)
//   * theta             — the Theorem 2 premise (two nodes joined by three
//                         paths); theta(1,1,1) == parallel_arcs(3) is the
//                         minimal LR2 counterexample
// plus families used by the benches (stars, grids, random multigraphs).
//
// Figure 1's third and fourth drawings give only the philosopher/fork counts
// (16ph/12f and 10ph/9f); fig1c/fig1d are faithful reconstructions with the
// same counts and the same qualitative features (ring subgraphs with
// high-degree nodes).
#pragma once

#include <cstdint>

#include "gdp/graph/topology.hpp"

namespace gdp::rng {
class Rng;
}

namespace gdp::graph {

/// Dijkstra's round table: n >= 2 philosophers, n forks, alternating.
/// Philosopher i sits between fork i (left) and fork (i+1) mod n (right).
Topology classic_ring(int n);

/// Two forks joined by `n >= 2` parallel philosophers. The fork is shared by
/// all n philosophers; this is the smallest "generalized" system.
Topology parallel_arcs(int n);

/// Figure 1, leftmost: 6 philosophers, 3 forks — a triangle of forks with
/// every arc doubled. This is the system of the §3 counterexample to LR1.
Topology fig1a();

/// Figure 1, second: 12 philosophers, 6 forks — a hexagon with doubled arcs.
Topology fig1b();

/// Figure 1, third (reconstruction): 16 philosophers, 12 forks — a 12-ring
/// with 4 chords, so four ring nodes have degree 3.
Topology fig1c();

/// Figure 1, rightmost (reconstruction): 10 philosophers, 9 forks — an
/// 8-ring plus a center fork tied to two opposite ring nodes.
Topology fig1d();

/// A ring of `k >= 3` forks/philosophers plus one chord philosopher between
/// node 0 and node k/2. Node 0 has three incident arcs: Theorem 1 premise.
Topology ring_with_chord(int k);

/// A ring of `k >= 3` plus one pendant philosopher from ring node 0 to a
/// fresh outside fork g (Figure 2 allows g inside or outside H).
Topology ring_with_pendant(int k);

/// Two hub forks joined by three internally disjoint paths with a, b, c
/// philosophers (each >= 1). The union of any two paths is a ring H and the
/// third is the extra path: Theorem 2 premise. theta(1,1,1) == parallel_arcs(3).
Topology theta(int a, int b, int c);

/// One center fork, `leaves >= 2` outer forks, one philosopher per leaf.
/// The center fork is shared by all philosophers.
Topology star(int leaves);

/// Forks at the vertices of a rows x cols grid, a philosopher on every grid
/// edge. rows*cols forks, rows*(cols-1) + cols*(rows-1) philosophers.
Topology grid(int rows, int cols);

/// A philosopher for every unordered pair of `k >= 2` forks (complete graph).
Topology complete(int k);

/// `n` philosophers over `k` forks with independently uniform distinct
/// endpoints. Guaranteed connected (rejection-sampled); deterministic in rng.
Topology random_multigraph(int k, int n, rng::Rng& rng);

}  // namespace gdp::graph
