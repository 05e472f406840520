// Template definitions of the quantitative analysis pipeline, generalized
// over any type exposing the Model read API. Instantiated for `Model`
// (quant.cpp) and for `store::ChunkedModel` (store.cpp — the chunk-native
// verdict path): every interval endpoint and sweep count is bit-identical
// on both paths because the model is only read here, through one shared
// definition.
//
// Everything runs on the MEC quotient of the relevant fragment. Collapsing
// maximal end components is what makes iteration-from-above meaningful: the
// quotient graph provably has no end components besides its terminals (an EC
// spanning quotient nodes would project back to an EC of the fragment, which
// is contained in a MEC — contradiction with crossing distinct nodes), so
// the reach/time Bellman operators have unique fixed points over it, and
// upper iterates cannot stall on a spurious cyclic fixed point.
//
// Quotient layout: one node per non-terminal state class (a MEC, or a
// single state outside every MEC), node-major CSR of EXTERNAL actions (a
// member state's action is internal — and dropped — iff every outcome stays
// in the same MEC; singleton non-MEC states cannot have fully-internal
// actions, or they would be an EC themselves). Node ids, action order and
// outcome order are assigned by one ascending state scan, so the quotient
// bytes are identical for every thread count; the parallel passes only fill
// precomputed disjoint ranges. Once built, the quotient is a compact
// self-contained structure: the Bellman sweeps over it never touch the
// model again, which is what keeps the chunk-native path's working set to
// the hot chunks plus the quotient.
//
// All Bellman sweeps are Jacobi (read prev, write next) with monotone
// clamps (lower = max(old, T(old)), upper = min(old, T(old)) — both sides
// of each clamp are valid bounds, so clamping preserves soundness and
// enforces the monotonicity the property tests pin). Expected-time upper
// bounds come from optimistic value iteration: guess U = (1 + d) * L,
// accept only when T(U) <= U pointwise (which proves U >= the true value
// by monotone unrolling), then co-iterate both bounds down to epsilon.
//
// Every sweep is one pool pass that also computes its own stopping test:
// the reach kernel evaluates both bounds in one traversal of the quotient
// (two accumulators, each adding in the order a single-bound evaluation
// would) together with the bracket width and the largest move; the time
// kernels fold the residual into the lower sweep, and the verification
// pass and each co-iteration step (lower sweep, upper sweep, gap) are
// single passes too. Each block parks its max partials at lo / kGrain and
// the partials fold in index order (fold_max), so the results are
// bit-identical to separate passes at every thread count. There is no
// separate max-reduction pass.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/mdp/end_components_impl.hpp"
#include "gdp/mdp/fair_progress_impl.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"

namespace gdp::mdp::quant::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sentinels shared by node_of (state -> class) and dest (outcome target).
inline constexpr std::uint32_t kGoal = 0xFFFFFFFFu;     // target terminal
inline constexpr std::uint32_t kUnknown = 0xFFFFFFFEu;  // frontier terminal

inline bool is_node(std::uint32_t c) { return c < kUnknown; }

/// Domains below this many elements (quotient nodes, or states for the
/// state-level passes) run their sweeps and reductions inline: spawning the
/// pool costs more than it saves there.
inline constexpr std::size_t kInlineNodes = 16'384;

/// Indices per parallel_for block, for the sweeps and their reductions.
inline constexpr std::size_t kGrain = 2'048;

/// Worker count for every sweep and reduction of one phase over n elements.
inline int phase_threads(std::size_t n, const QuantOptions& options) {
  return n < kInlineNodes ? 1 : options.threads;
}

/// One slot per parallel_for block of a pass over n elements: the block
/// [lo, hi) parks its partial reduction at lo / kGrain. A phase keeps n and
/// its thread count fixed, so every pass writes the same slots.
inline std::size_t block_slots(std::size_t n) { return n / kGrain + 1; }

/// Folds per-block max partials in index order. Every quantity reduced
/// this way is a max over non-negative terms seeded with 0.0, so 0.0 is
/// neutral for slots no block wrote (the inline single-block call writes
/// only slot 0). IEEE max is exact: the result is bit-identical for every
/// block size and thread count.
inline double fold_max(const std::vector<double>& partial) {
  double best = 0.0;
  for (const double p : partial) best = std::max(best, p);
  return best;
}

/// The probability of outcome `o` of `model`, read in double. This is the
/// one place the Bellman operators read a probability (build_quotient's
/// q.probs table and iterate_time_min's accumulator), so a read-only view can
/// reweight a model's outcomes without copying them: an overload for the
/// view, found by argument-dependent lookup, replaces this default.
/// `Model` and `ChunkedModel` read the stored float unchanged.
template <class ModelT>
double prob_of(const ModelT& /*model*/, const Outcome& o) {
  return static_cast<double>(o.prob);
}

/// The MEC quotient of one fragment of the model (see file comment).
struct Quotient {
  std::uint32_t num_nodes = 0;
  std::uint32_t initial = kUnknown;  // class of model.initial()

  std::vector<std::uint32_t> node_of;  // state -> node id / kGoal / kUnknown

  // Node-major CSR of external actions. Offsets are 32-bit (build_quotient
  // checks the outcome count fits). An outcome's probability is an index
  // into `probs`, the quotient's distinct probabilities in ascending order:
  // a model has a handful, so an outcome costs 2 + 4 bytes, not 8 + 4.
  std::vector<std::uint32_t> act_off;  // num_nodes + 1
  std::vector<std::uint32_t> out_off;  // act_off[num_nodes] + 1
  std::vector<double> probs;           // distinct prob_of values, ascending
  std::vector<std::uint16_t> prob;     // outcome -> index into probs
  std::vector<std::uint32_t> dest;     // node id / kGoal / kUnknown

  bool has_actions(std::uint32_t q) const { return act_off[q + 1] > act_off[q]; }

  /// The probability of outcome `o`: the prob_of double it was built from.
  double p(std::size_t o) const { return probs[prob[o]]; }

  /// Nodes reachable from `initial` along quotient edges (empty when the
  /// initial state is itself a terminal).
  std::vector<std::uint8_t> reachable_nodes() const {
    std::vector<std::uint8_t> seen(num_nodes, 0);
    if (!is_node(initial)) return seen;
    std::vector<std::uint32_t> stack{initial};
    seen[initial] = 1;
    while (!stack.empty()) {
      const std::uint32_t q = stack.back();
      stack.pop_back();
      for (std::size_t a = act_off[q]; a < act_off[q + 1]; ++a) {
        for (std::size_t o = out_off[a]; o < out_off[a + 1]; ++o) {
          const std::uint32_t d = dest[o];
          if (is_node(d) && !seen[d]) {
            seen[d] = 1;
            stack.push_back(d);
          }
        }
      }
    }
    return seen;
  }
};

/// Inserts `v` into the ascending table `sorted` of distinct values unless
/// it is there. The table holds a set, so it comes out the same for any
/// split of the values into blocks, and so at every thread count.
inline void insert_distinct(std::vector<double>& sorted, double v) {
  const auto at = std::lower_bound(sorted.begin(), sorted.end(), v);
  if (at == sorted.end() || *at != v) sorted.insert(at, v);
}

/// Builds the quotient over every state (all reachable: see Model). States
/// matching `target_mask` eaters become the kGoal terminal when
/// `target_terminal` (the reach-target quotients) and ordinary states otherwise (the p_trap
/// quotient, where meals are just states on the way); frontier states are
/// always the kUnknown terminal. `mecs` must be the MEC decomposition of
/// exactly this fragment (avoid_set == target_mask when target_terminal,
/// avoid_set == 0 otherwise).
template <class ModelT>
Quotient build_quotient(const ModelT& model, const std::vector<EndComponent>& mecs,
                        std::uint64_t target_mask, bool target_terminal,
                        const QuantOptions& options) {
  obs::Span span("quant.quotient");
  const std::size_t n = model.num_states();
  const int phils = model.num_phils();
  const int threads = phase_threads(n, options);

  Quotient q;
  q.node_of.resize(n);
  std::vector<std::int32_t> mec_node(mecs.size(), -1);  // mec index -> node id

  // MEC membership per state (members are disjoint across MECs).
  std::vector<std::int32_t> mec_of(n, -1);
  for (std::size_t m = 0; m < mecs.size(); ++m) {
    for (const StateId s : mecs[m].states) mec_of[s] = static_cast<std::int32_t>(m);
  }

  // Class assignment: one ascending scan (deterministic node numbering).
  for (StateId s = 0; s < n; ++s) {
    if (target_terminal && (model.eaters(s) & target_mask) != 0) {
      q.node_of[s] = kGoal;
      continue;
    }
    if (model.frontier(s)) {
      q.node_of[s] = kUnknown;
      continue;
    }
    const std::int32_t m = mec_of[s];
    if (m >= 0) {
      if (mec_node[m] < 0) mec_node[m] = static_cast<std::int32_t>(q.num_nodes++);
      q.node_of[s] = static_cast<std::uint32_t>(mec_node[m]);
    } else {
      q.node_of[s] = q.num_nodes++;
    }
  }
  q.initial = q.node_of[model.initial()];

  // External-action and outcome counts per state (parallel; disjoint
  // writes), and each block's distinct external-outcome probabilities.
  std::vector<std::uint32_t> act_count(n, 0), out_count(n, 0);
  std::vector<std::vector<double>> block_probs(block_slots(n));
  common::parallel_for(n, kGrain, threads, [&](std::size_t lo, std::size_t hi) {
    std::vector<double>& distinct = block_probs[lo / kGrain];
    for (std::size_t s = lo; s < hi; ++s) {
      if (!is_node(q.node_of[s])) continue;
      const std::uint32_t me = q.node_of[s];
      const bool in_mec = mec_of[s] >= 0;
      std::uint32_t acts = 0, outs = 0;
      for (int p = 0; p < phils; ++p) {
        const auto [begin, end] = model.row(static_cast<StateId>(s), p);
        if (begin == end) continue;
        if (in_mec) {
          bool internal = true;
          for (const Outcome* o = begin; o != end && internal; ++o) {
            internal = q.node_of[o->next] == me;
          }
          if (internal) continue;  // dwell inside the MEC: collapsed away
        }
        ++acts;
        outs += static_cast<std::uint32_t>(end - begin);
        for (const Outcome* o = begin; o != end; ++o) insert_distinct(distinct, prob_of(model, *o));
      }
      act_count[s] = acts;
      out_count[s] = outs;
    }
  });
  for (const std::vector<double>& distinct : block_probs) {
    for (const double v : distinct) insert_distinct(q.probs, v);
  }
  GDP_CHECK_MSG(q.probs.size() <= std::size_t{1} << 16,
                "quant: " << q.probs.size() << " distinct outcome probabilities exceed the "
                             "quotient's 16-bit probability index");

  // Per-node offsets and per-state write bases, in (node, member-state
  // ascending) order — one sequential prefix pass, as in the explorer.
  std::vector<std::uint32_t> act_base(n, 0), out_base(n, 0);
  q.act_off.assign(q.num_nodes + 1, 0);
  {
    // Members of every node in ascending state order: a counting sort of
    // the states by node id into one flat array. The placing scan is
    // ascending, so each node's run is too. member_end[node + 1] counts,
    // then holds each run's start, and the placing scan advances it to the
    // run's end.
    std::vector<std::size_t> member_end(q.num_nodes + 1, 0);
    for (StateId s = 0; s < n; ++s) {
      if (is_node(q.node_of[s])) ++member_end[q.node_of[s] + 1];
    }
    for (std::uint32_t node = 0; node < q.num_nodes; ++node) {
      member_end[node + 1] += member_end[node];
    }
    std::vector<StateId> members(member_end[q.num_nodes]);
    for (StateId s = 0; s < n; ++s) {
      if (is_node(q.node_of[s])) members[member_end[q.node_of[s]]++] = s;
    }
    std::size_t next_act = 0, next_out = 0, k = 0;
    for (std::uint32_t node = 0; node < q.num_nodes; ++node) {
      for (; k < member_end[node]; ++k) {
        const StateId s = members[k];
        act_base[s] = static_cast<std::uint32_t>(next_act);
        out_base[s] = static_cast<std::uint32_t>(next_out);
        next_act += act_count[s];
        next_out += out_count[s];
      }
      q.act_off[node + 1] = static_cast<std::uint32_t>(next_act);
    }
    // Actions never outnumber outcomes, so this bounds every offset and base
    // narrowed above; a larger quotient throws before any of them is used.
    GDP_CHECK_MSG(next_out < std::size_t{1} << 32,
                  "quant: a quotient with " << next_out
                                            << " outcomes exceeds its 32-bit offsets");
    q.out_off.assign(next_act + 1, 0);
    q.prob.resize(next_out);
    q.dest.resize(next_out);
  }

  // Fill (parallel; each state owns its precomputed ranges).
  common::parallel_for(n, kGrain, threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      if (!is_node(q.node_of[s])) continue;
      const std::uint32_t me = q.node_of[s];
      const bool in_mec = mec_of[s] >= 0;
      std::size_t a = act_base[s];
      std::uint32_t o_at = out_base[s];
      for (int p = 0; p < phils; ++p) {
        const auto [begin, end] = model.row(static_cast<StateId>(s), p);
        if (begin == end) continue;
        if (in_mec) {
          bool internal = true;
          for (const Outcome* o = begin; o != end && internal; ++o) {
            internal = q.node_of[o->next] == me;
          }
          if (internal) continue;
        }
        for (const Outcome* o = begin; o != end; ++o) {
          const double v = prob_of(model, *o);
          q.prob[o_at] = static_cast<std::uint16_t>(
              std::lower_bound(q.probs.begin(), q.probs.end(), v) - q.probs.begin());
          q.dest[o_at] = q.node_of[o->next];
          ++o_at;
        }
        q.out_off[a + 1] = o_at;  // row end; globally monotone by construction
        ++a;
      }
    }
  });
  return q;
}

/// Per-iteration bookkeeping shared by the kernels.
struct Phase {
  std::size_t sweeps = 0;
  bool converged = false;
};

/// One max-Bellman evaluation of node `i` against value vector `val`.
/// `goal` / `unknown` are the terminal values, `cost` is 1 for expected
/// times and 0 for probabilities. Nodes without external actions return
/// `sink` (never reach the goal: probability 0 / time +inf).
inline double bell_max(const Quotient& q, std::uint32_t i, const std::vector<double>& val,
                       double goal, double unknown, double cost, double sink) {
  double best = -kInf;
  for (std::size_t a = q.act_off[i]; a < q.act_off[i + 1]; ++a) {
    double acc = cost;
    for (std::size_t o = q.out_off[a]; o < q.out_off[a + 1]; ++o) {
      const std::uint32_t d = q.dest[o];
      const double v = d == kGoal ? goal : d == kUnknown ? unknown : val[d];
      acc += q.p(o) * v;
    }
    best = std::max(best, acc);
  }
  return best == -kInf ? sink : best;
}

/// Both reach-probability bell_max evaluations of node `i` in one traversal
/// of its actions: against `lo` with the kUnknown terminal at 0 and against
/// `hi` with it at 1 (cost 0; a node without actions would return 0, but
/// the reach kernel fixes those). Each accumulator adds in the same order as
/// a separate bell_max call, so both results are bit-identical to it.
inline std::pair<double, double> bell_max_reach(const Quotient& q, std::uint32_t i,
                                                const std::vector<double>& lo,
                                                const std::vector<double>& hi, double goal) {
  double best_lo = -kInf, best_hi = -kInf;
  for (std::size_t a = q.act_off[i]; a < q.act_off[i + 1]; ++a) {
    double acc_lo = 0.0, acc_hi = 0.0;
    for (std::size_t o = q.out_off[a]; o < q.out_off[a + 1]; ++o) {
      const std::uint32_t d = q.dest[o];
      const double p = q.p(o);
      acc_lo += p * (d == kGoal ? goal : d == kUnknown ? 0.0 : lo[d]);
      acc_hi += p * (d == kGoal ? goal : d == kUnknown ? 1.0 : hi[d]);
    }
    best_lo = std::max(best_lo, acc_lo);
    best_hi = std::max(best_hi, acc_hi);
  }
  return {best_lo == -kInf ? 0.0 : best_lo, best_hi == -kInf ? 0.0 : best_hi};
}

/// Interval iteration for max reachability probability on the quotient.
/// `pinned[i]` >= 0 fixes node i at that value in both bounds (used for the
/// fair-trap goals of the p_min computation). goal_value is the value of
/// the kGoal terminal; the kUnknown terminal is 0 in the lower bound and 1
/// in the upper bound (that is what "sound on truncated models" means).
/// Returns per-node bounds in lo/hi.
inline Phase iterate_reach_max(const Quotient& q, const std::vector<double>& pinned,
                               double goal_value, const QuantOptions& options,
                               std::vector<double>& lo, std::vector<double>& hi) {
  const std::size_t n = q.num_nodes;
  const int threads = phase_threads(n, options);
  lo.assign(n, 0.0);
  hi.assign(n, 1.0);
  std::vector<double> lo2(n), hi2(n);
  std::vector<std::uint8_t> fixed(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (pinned[i] >= 0.0) {
      lo[i] = hi[i] = lo2[i] = hi2[i] = pinned[i];
      fixed[i] = 1;
    } else if (!q.has_actions(i)) {
      lo[i] = hi[i] = lo2[i] = hi2[i] = 0.0;  // no way out: the goal is never reached
      fixed[i] = 1;
    }
  }

  Phase phase;
  if (n == 0) {
    phase.converged = true;
    return phase;
  }
  // One span per reachability phase, with a live bracket-width timeline
  // sample per sweep (mirrored into a timing gauge for the heartbeat
  // sampler — parts-per-billion so it fits the integer metric tables).
  obs::Span phase_span("quant.reach_phase");
  static obs::Gauge& width_gauge =
      obs::Registry::global().gauge("quant.bracket_width_ppb", obs::Plane::kTiming);
  // One pass per sweep: both bounds, plus each block's bracket width and
  // largest move, parked per block and folded in index order.
  std::vector<double> width_part(block_slots(n), 0.0), moved_part(block_slots(n), 0.0);
  while (phase.sweeps < options.max_iterations) {
    common::parallel_for(n, kGrain, threads, [&](std::size_t a, std::size_t b) {
      double w = 0.0, d = 0.0;
      for (std::size_t i = a; i < b; ++i) {
        if (fixed[i]) continue;  // lo == hi, never moves
        const auto [l, h] = bell_max_reach(q, static_cast<std::uint32_t>(i), lo, hi, goal_value);
        // The [0, 1] clamp keeps float rounding honest: outcome
        // probabilities are stored as floats and a row's mass can sum to
        // just above 1, which would otherwise push a "lower bound" past
        // the true probability ceiling.
        lo2[i] = std::min(1.0, std::max(lo[i], l));
        hi2[i] = std::max(0.0, std::min(hi[i], h));
        w = std::max(w, hi2[i] - lo2[i]);
        d = std::max(d, std::max(lo2[i] - lo[i], hi[i] - hi2[i]));
      }
      width_part[a / kGrain] = w;
      moved_part[a / kGrain] = d;
    });
    lo.swap(lo2);
    hi.swap(hi2);
    ++phase.sweeps;
    const double width = fold_max(width_part);
    obs::timeline::counter_sample("quant.bracket_width", width);
    width_gauge.set(static_cast<std::uint64_t>(width * 1e9));
    if (width <= options.epsilon) {
      phase.converged = true;
      break;
    }
    // Stall detection: when both bounds have (numerically) stopped moving
    // the remaining width is irreducible — frontier mass on a truncated
    // model, or a float-locked gap — and further sweeps cannot certify.
    if (fold_max(moved_part) <= options.epsilon * 1e-3) break;  // honest non-convergence
  }
  return phase;
}

/// Shared lower-iterate / optimistic-upper-verify driver for the two
/// expected-time kernels. `bell(i, val)` is the Bellman operator at element
/// i over the vector `val`; the driver applies it to both bounds (clamping
/// each monotone); `active(i)` selects the domain. On truncated
/// models (`complete` == false) only the lower bound is iterated — frontier
/// states forbid any finite upper certificate.
///
/// The verification step is the OVI argument: if T(U) <= U pointwise then
/// monotone unrolling gives U >= E[truncated k-step cost] for every k, so U
/// bounds the true expectation; afterwards both bounds move monotonically
/// (lower is max-clamped, T keeps the verified upper decreasing) until
/// their gap is <= epsilon on every active, finite element. An element
/// whose LOWER bound diverges to +inf is a certificate of infinity in
/// itself and is excluded from the width test ([inf, inf] has width 0).
template <typename Active, typename Bellman>
Phase drive_time_bounds(std::size_t n, bool complete, const QuantOptions& options,
                        const Active& active, const Bellman& bell, std::vector<double>& lo,
                        std::vector<double>& hi) {
  const int threads = phase_threads(n, options);
  lo.assign(n, 0.0);
  hi.assign(n, kInf);
  std::vector<double> lo2(lo), up(n, 0.0), up2(n, 0.0);
  // Per-block partials: a residual or a gap (max-folded), and T(U) <= U.
  std::vector<double> partial(block_slots(n), 0.0);
  std::vector<std::uint8_t> valid_part(block_slots(n), 1);

  obs::Span phase_span("quant.time_phase");
  Phase phase;
  // One lower sweep; returns its residual, the largest lower-bound move.
  // Infinite entries are converged-at-infinity and do not gate it.
  auto sweep_lower = [&] {
    common::parallel_for(n, kGrain, threads, [&](std::size_t a, std::size_t b) {
      double r = 0.0;
      for (std::size_t i = a; i < b; ++i) {
        if (!active(i)) continue;
        lo2[i] = std::max(lo[i], bell(i, lo));
        if (std::isfinite(lo2[i])) r = std::max(r, lo2[i] - lo[i]);
      }
      partial[a / kGrain] = r;
    });
    lo.swap(lo2);
    ++phase.sweeps;
    return fold_max(partial);
  };
  // The co-iteration step: the lower sweep, the upper sweep (both Jacobi
  // over the old vectors) and the gap of the new pair, in one pass.
  auto sweep_both = [&] {
    common::parallel_for(n, kGrain, threads, [&](std::size_t a, std::size_t b) {
      double w = 0.0;
      for (std::size_t i = a; i < b; ++i) {
        if (!active(i)) continue;
        lo2[i] = std::max(lo[i], bell(i, lo));
        up2[i] = std::min(up[i], bell(i, up));
        if (std::isfinite(lo2[i])) w = std::max(w, up2[i] - lo2[i]);
      }
      partial[a / kGrain] = w;
    });
    lo.swap(lo2);
    up.swap(up2);
    ++phase.sweeps;
    return fold_max(partial);
  };

  const std::size_t budget = options.max_iterations;
  if (!complete) {
    while (phase.sweeps < budget) {
      if (sweep_lower() <= options.epsilon / 8.0) break;
    }
    return phase;  // lower bound only; never converged in the certified sense
  }

  // Warm the lower bound until it is nearly stationary, then guess-and-
  // verify upper bounds. The guess inflates MULTIPLICATIVELY: for the
  // unit-cost Bellman operator T(x) = cost + extremum of averages,
  // T((1+d)L) = (1+d)T(L) - d exactly, so T(U) <= U reduces to the residual
  // condition T(L) - L <= d/(1+d) — reachable by plain lower iteration. An
  // ADDITIVE offset can never verify here: probabilities sum to 1, so
  // T(L+c) = T(L)+c wherever no outcome leaves for a terminal. The round
  // cap bounds the damage when no finite upper bound exists (an unnoticed
  // infinite value): each failed round grows the inflation 8x and doubles
  // the warm-up, far more than any converging instance needs.
  double inflate = std::max(options.epsilon, 1e-9);
  std::size_t warm = 64;
  for (int round = 0; round < 24 && phase.sweeps < budget; ++round) {
    for (std::size_t k = 0; k < warm && phase.sweeps < budget; ++k) {
      if (sweep_lower() <= options.epsilon / 8.0) break;
    }

    // The guess U, then one verification pass: T(U), whether T(U) <= U
    // holds (per-block flags), and the gap T(U) - L the co-iteration
    // starts from.
    common::parallel_for(n, kGrain, threads, [&](std::size_t a, std::size_t b) {
      for (std::size_t i = a; i < b; ++i) up[i] = active(i) ? lo[i] * (1.0 + inflate) : 0.0;
    });
    common::parallel_for(n, kGrain, threads, [&](std::size_t a, std::size_t b) {
      bool ok = true;
      double w = 0.0;
      for (std::size_t i = a; i < b; ++i) {
        if (!active(i)) continue;
        up2[i] = bell(i, up);
        ok = ok && up2[i] <= up[i];
        if (std::isfinite(lo[i])) w = std::max(w, up2[i] - lo[i]);
      }
      valid_part[a / kGrain] = ok ? 1 : 0;
      partial[a / kGrain] = w;
    });
    ++phase.sweeps;
    if (std::find(valid_part.begin(), valid_part.end(), 0) != valid_part.end()) {
      inflate *= 8.0;
      warm *= 2;
      continue;
    }

    // Verified: T(up) <= up, so further applications keep decreasing while
    // staying true upper bounds. Co-iterate both sides down to epsilon,
    // bailing out honestly if the gap float-locks above it.
    up.swap(up2);
    double g = fold_max(partial);
    double last_gap = kInf;
    int stalls = 0;
    while (phase.sweeps < budget) {
      if (g <= options.epsilon) {
        phase.converged = true;
        break;
      }
      if (g >= last_gap) {
        if (++stalls >= 8) break;
      } else {
        stalls = 0;
      }
      last_gap = g;
      g = sweep_both();
    }
    if (phase.converged) {
      for (std::size_t i = 0; i < n; ++i) {
        if (active(i) && std::isfinite(lo[i])) hi[i] = up[i];
      }
    }
    break;
  }
  return phase;
}

/// Max expected steps on the quotient (each external action costs one
/// step), over the `domain` nodes (quotient-reachable from the initial
/// node; everything a domain node can reach is again in the domain). A
/// dead-end node (no external actions) in the domain gets a +inf lower
/// bound, which propagates soundly through the max.
inline Phase iterate_time_max(const Quotient& q, const std::vector<std::uint8_t>& domain,
                              bool complete, const QuantOptions& options, std::vector<double>& lo,
                              std::vector<double>& hi) {
  auto bell = [&q](std::size_t i, const std::vector<double>& val) {
    return bell_max(q, static_cast<std::uint32_t>(i), val, 0.0, 0.0, 1.0, kInf);
  };
  return drive_time_bounds(
      q.num_nodes, complete, options, [&](std::size_t i) { return domain[i] != 0; }, bell, lo,
      hi);
}

/// Min expected steps over the RAW states of the meal-free-reachable
/// fragment (`domain`), every step charged. Target states are 0-cost
/// terminals; frontier states count 0 in the lower bound (sound: the
/// truncated continuation could eat immediately) and block certification
/// via `complete`. Actions with an outcome in `bad` — states whose
/// certified Pmax upper bound is below 1, where the expectation is
/// infinite — are forbidden, exactly as the true minimizer forbids them;
/// a state with no permitted action gets a +inf lower bound (a certificate
/// of infinity) that propagates soundly through the min.
template <class ModelT>
Phase iterate_time_min(const ModelT& model, std::uint64_t target_mask,
                       const std::vector<std::uint8_t>& domain,
                       const std::vector<std::uint8_t>& bad, const QuantOptions& options,
                       std::vector<double>& lo, std::vector<double>& hi) {
  const int phils = model.num_phils();
  auto bell = [&](std::size_t i, const std::vector<double>& val) {
    const auto s = static_cast<StateId>(i);
    double best = kInf;
    for (int p = 0; p < phils; ++p) {
      const auto [begin, end] = model.row(s, p);
      if (begin == end) continue;
      double acc = 1.0;
      bool ok = true;
      for (const Outcome* o = begin; o != end && ok; ++o) {
        if ((model.eaters(o->next) & target_mask) != 0) continue;  // terminal, 0 steps left
        if (bad[o->next]) {
          ok = false;
          break;
        }
        acc += prob_of(model, *o) * (model.frontier(o->next) ? 0.0 : val[o->next]);
      }
      if (ok) best = std::min(best, acc);
    }
    return best;
  };
  return drive_time_bounds(
      model.num_states(), !model.truncated(), options,
      [&](std::size_t i) { return domain[i] != 0 && !bad[i]; }, bell, lo, hi);
}

/// Raw states reachable from the initial state through meal-free expanded
/// states only (the state-level mirror of the quotient's reachable set,
/// needed because e_min charges MEC-internal steps the quotient drops).
template <class ModelT>
std::vector<std::uint8_t> fragment_reachable(const ModelT& model, std::uint64_t target_mask) {
  std::vector<std::uint8_t> seen(model.num_states(), 0);
  const StateId init = model.initial();
  if ((model.eaters(init) & target_mask) != 0 || model.frontier(init)) return seen;
  std::vector<StateId> stack{init};
  seen[init] = 1;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [begin, end] = model.row(s, p);
      for (const Outcome* o = begin; o != end; ++o) {
        const StateId t = o->next;
        if (seen[t] || (model.eaters(t) & target_mask) != 0 || model.frontier(t)) continue;
        seen[t] = 1;
        stack.push_back(t);
      }
    }
  }
  return seen;
}

/// Orders the endpoints: double rounding can leave a lower iterate a few
/// ulps above the upper one once both are within epsilon of the true value.
inline Interval make_interval(double lo, double hi) {
  return lo <= hi ? Interval{lo, hi} : Interval{hi, lo};
}

/// The analysis of one target mask: everything analyze() computes, over
/// one MEC decomposition of the target's meal-free fragment — the same one
/// check_fair_progress decides on, so `progress` is that verdict.
template <class ModelT>
QuantResult analyze_t(const ModelT& model, std::uint64_t target_set, const QuantOptions& options) {
  GDP_CHECK_MSG(options.epsilon > 0.0, "quant::analyze needs epsilon > 0");
  mdp::detail::require_phil_mask(model, target_set);
  obs::Span span("quant.analyze");
  QuantResult result;
  result.target_set = target_set;
  result.num_states = model.num_states();
  result.epsilon = options.epsilon;

  const bool complete = !model.truncated();

  // MECs of the meal-free fragment (the fair ones are the traps) and the
  // verdict they decide.
  const std::vector<EndComponent> mecs =
      mdp::detail::maximal_end_components_t(model, target_set);
  result.progress = mdp::detail::verdict_from_mecs_t(model, target_set, mecs);
  const int phils = model.num_phils();

  const Quotient fq =
      build_quotient(model, mecs, target_set, /*target_terminal=*/true, options);
  result.num_quotient_nodes = fq.num_nodes;

  const std::vector<std::uint8_t> node_reach = fq.reachable_nodes();
  std::vector<std::uint8_t> fair_node(fq.num_nodes, 0);
  for (const EndComponent& mec : mecs) {
    if (mec.fair(phils)) fair_node[fq.node_of[mec.states.front()]] = 1;
  }
  for (std::uint32_t i = 0; i < fq.num_nodes; ++i) {
    if (fair_node[i] && node_reach[i]) result.fair_trap_reachable = true;
  }
  if (is_node(fq.initial) && fair_node[fq.initial]) result.fair_trap_reachable = true;

  const bool initial_target = fq.initial == kGoal;
  const bool initial_unknown = fq.initial == kUnknown;
  // No fair trap is meal-free-reachable on a complete model: every fair
  // adversary eats with probability 1, so p_min = 1 and Pmax = 1 at every
  // meal-free-reachable state. Float outcome masses can sum to just under
  // 1 (25 outcomes of 1.0f/25 sum to 0.99999998), which leaves the numeric
  // Pmax bracket a few ulps short of 1; the qualitative certificate
  // overrules it, here and in e_min's infinity tests below.
  const bool meal_certain = !result.fair_trap_reachable && complete;

  bool all_converged = true;
  // One phase's bookkeeping: per-phase sweep slot, the running total, and
  // the stall count (a phase that ran but ended uncertified).
  auto note = [&](std::size_t& slot, const Phase& phase) {
    slot = phase.sweeps;
    result.sweeps += phase.sweeps;
    all_converged = all_converged && phase.converged;
    if (!phase.converged) ++result.stats.stalled_phases;
  };
  std::vector<double> lo, hi;
  std::vector<double> hi_pmax;  // per-node Pmax upper bounds, kept for e_min

  // --- p_max: max P(reach the target eating set). ---
  if (initial_target) {
    result.p_max = {1.0, 1.0};
  } else if (initial_unknown) {
    result.p_max = {0.0, 1.0};
    all_converged = false;
  } else {
    const std::vector<double> no_pins(fq.num_nodes, -1.0);
    const Phase phase = iterate_reach_max(fq, no_pins, /*goal_value=*/1.0, options, lo, hi_pmax);
    note(result.stats.p_max_sweeps, phase);
    result.p_max =
        meal_certain ? Interval{1.0, 1.0} : make_interval(lo[fq.initial], hi_pmax[fq.initial]);
  }

  // --- p_min = 1 - Pmax[fragment](reach a fair avoiding MEC). ---
  if (initial_target) {
    result.p_min = {1.0, 1.0};
  } else if (initial_unknown) {
    result.p_min = {0.0, 1.0};
    all_converged = false;
  } else if (meal_certain) {
    result.p_min = {1.0, 1.0};  // qualitative: no meal-free path to any fair trap
  } else {
    std::vector<double> pins(fq.num_nodes, -1.0);
    for (std::uint32_t i = 0; i < fq.num_nodes; ++i) {
      if (fair_node[i]) pins[i] = 1.0;  // the trap itself: confinement is free from here
    }
    // Reaching a meal first escapes the trap for good: kGoal counts 0.
    const Phase phase = iterate_reach_max(fq, pins, /*goal_value=*/0.0, options, lo, hi);
    note(result.stats.p_min_sweeps, phase);
    result.p_min = make_interval(1.0 - hi[fq.initial], 1.0 - lo[fq.initial]);
  }

  // --- e_min: best-case expected steps to the first meal. ---
  if (initial_target) {
    result.e_min = {0.0, 0.0};
  } else if (initial_unknown) {
    result.e_min = {0.0, kInf};
    all_converged = false;
  } else if (result.p_max.upper < 1.0) {
    // Pmax < 1 certified (the upper bound is sound even on truncated
    // models): some mass never eats, so the expectation is infinite.
    result.e_min = {kInf, kInf};
  } else {
    const std::vector<std::uint8_t> domain = fragment_reachable(model, target_set);
    // States whose certified Pmax upper bound is below 1 have infinite
    // expected time under every adversary; the minimizer never enters them.
    // Under meal_certain there are none.
    std::vector<std::uint8_t> bad(model.num_states(), 0);
    if (!meal_certain && !hi_pmax.empty()) {
      for (StateId s = 0; s < model.num_states(); ++s) {
        if (is_node(fq.node_of[s]) && hi_pmax[fq.node_of[s]] < 1.0) bad[s] = 1;
      }
    }
    const Phase phase = iterate_time_min(model, target_set, domain, bad, options, lo, hi);
    note(result.stats.e_min_sweeps, phase);
    result.e_min = make_interval(lo[model.initial()], hi[model.initial()]);
  }

  // --- e_max: worst-case expected productive steps (see quant.hpp). ---
  if (initial_target) {
    result.e_max = {0.0, 0.0};
  } else if (initial_unknown) {
    result.e_max = {0.0, kInf};
    all_converged = false;
  } else if (result.fair_trap_reachable) {
    // A fair adversary parks in the trap with positive probability and the
    // first meal never comes: infinite, certified by the qualitative BFS.
    result.e_max = {kInf, kInf};
  } else {
    const Phase phase = iterate_time_max(fq, node_reach, complete, options, lo, hi);
    note(result.stats.e_max_sweeps, phase);
    result.e_max = make_interval(lo[fq.initial], hi[fq.initial]);
  }

  // --- p_trap: max P(reach a fair avoiding MEC), meals allowed en route. ---
  if (result.progress.num_fair_mecs == 0 && complete) {
    result.p_trap = {0.0, 0.0};
  } else {
    // The full-model MECs (avoid_set = 0) and their target_terminal = false
    // quotient; build_quotient ignores the target mask there.
    const Quotient full_q =
        build_quotient(model, mdp::detail::maximal_end_components_t(model, 0),
                       /*target_mask=*/0, /*target_terminal=*/false, options);
    // Goal nodes: full-model MEC classes holding a fair-trap state (from
    // anywhere in such a MEC the trap is internally reachable with
    // probability 1, so the whole class counts as reached).
    std::vector<double> pins(full_q.num_nodes, -1.0);
    for (const EndComponent& mec : mecs) {
      if (!mec.fair(phils)) continue;
      for (const StateId s : mec.states) {
        if (is_node(full_q.node_of[s])) pins[full_q.node_of[s]] = 1.0;
      }
    }
    if (full_q.initial == kUnknown) {
      result.p_trap = {0.0, 1.0};
      all_converged = false;
    } else {
      const Phase phase = iterate_reach_max(full_q, pins, /*goal_value=*/0.0, options, lo, hi);
      note(result.stats.p_trap_sweeps, phase);
      result.p_trap = make_interval(lo[full_q.initial], hi[full_q.initial]);
    }
  }

  result.certainty = !complete           ? Certainty::kTruncated
                     : all_converged     ? Certainty::kCertified
                                         : Certainty::kIterationLimit;

  // Deterministic plane: sweep counts stop on thresholds of bit-identical
  // per-block max folds, so they are thread-count invariant.
  static obs::Counter& analyses = obs::Registry::global().counter("quant.analyses");
  static obs::Counter& sweeps_ctr = obs::Registry::global().counter("quant.sweeps");
  static obs::Counter& stalls_ctr = obs::Registry::global().counter("quant.stalled_phases");
  static obs::Histogram& sweeps_hist = obs::Registry::global().histogram("quant.analysis_sweeps");
  analyses.increment();
  sweeps_ctr.add(result.sweeps);
  stalls_ctr.add(result.stats.stalled_phases);
  sweeps_hist.record(result.sweeps);
  return result;
}

}  // namespace gdp::mdp::quant::detail
