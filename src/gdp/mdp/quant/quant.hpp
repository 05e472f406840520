// gdp::mdp::quant — quantitative verdicts over the explored MDP: min/max
// probability of reaching a target eating set and best-/worst-case expected
// steps to the first target meal, with SOUND two-sided bounds from interval
// iteration instead of a heuristic fixed point.
//
// Adversary class. All quantities range over the paper's FAIR adversaries
// (every philosopher scheduled infinitely often with probability 1) — the
// class the qualitative verdicts in fair_progress.hpp quantify over. This
// matters because the raw MDP is degenerate under unrestricted adversaries:
// blocked philosophers busy-wait as genuine self-loop rows, so an unfair
// scheduler can spin any of them forever and the unrestricted Pmin(reach E)
// is 0 essentially everywhere. Fairness restores the paper's intent:
//
//   * p_max — max probability of reaching the target set. Maximization is
//     fairness-insensitive (play the optimal prefix, fall back to
//     round-robin), so this is plain max reachability.
//   * p_min — min probability over fair adversaries. Computed through the
//     fair-trap identity: a fair run that never reaches the target is
//     almost surely eventually confined in a FAIR end component of the
//     non-target fragment (de Alfaro), hence
//         p_min = 1 - Pmax[fragment](reach a fair avoiding MEC)
//     where the inner Pmax ranges over all adversaries and is restricted to
//     meal-free paths. kProgressCertain verdicts correspond exactly to
//     p_min = 1 when the trap is meal-free-reachable; see p_trap for traps
//     behind a first meal.
//   * p_trap — max probability of reaching a fair avoiding MEC at all,
//     meals allowed en route. This is the quantitative strength of a
//     kProgressFails verdict (its witness region is reached with this
//     probability); p_trap = 0 iff the verdict is kProgressCertain on a
//     complete model.
//   * e_min — best-case expected number of steps to the first target meal
//     (every step counts). Finite iff p_max = 1.
//   * e_max — worst-case expected meal time over fair adversaries, counted
//     in PRODUCTIVE steps: steps whose action stays inside an avoiding MEC
//     of the fragment are not charged. The unqualified supremum is infinite
//     the moment any avoiding end component is reachable (a fair adversary
//     may dwell there arbitrarily long before its fairness debt comes due
//     — fairness bounds probability, not delay), and busy-wait self-loops
//     make that the universal case; excluding exactly the dwell the
//     adversary can stretch at will leaves the finite, attained worst case
//     computed by max value iteration on the MEC quotient. e_max is
//     infinite iff a fair avoiding MEC is meal-free-reachable (p_min < 1).
//
// One decomposition, one answer. The fair avoiding MECs above are the
// ones check_fair_progress decides on; analyze() computes them once and
// returns that verdict, witness EC included, as QuantResult::progress, so a
// caller that wants both never decomposes the fragment twice.
//
// Soundness. Value iteration alone can stop at any sup-norm residual and
// still be arbitrarily far from the true value. Following
// Haddad–Monmege-style interval iteration, the checker first collapses the
// maximal end components of the relevant fragment (reusing
// maximal_end_components) — the quotient has no end components besides its
// terminals, so the Bellman operator has a unique fixed point — then iterates a lower bound up from 0 and an upper
// bound down from 1 (for probabilities) or verifies a guessed upper bound
// with a Bellman contraction check (optimistic value iteration, for
// expected times). Both bounds are clamped monotone; iteration stops when
// upper - lower <= epsilon across the whole domain, and the true value
// provably lies inside every reported interval (up to IEEE-double rounding
// of the sweeps; bounds are exact fixed-point brackets, not estimates).
// Truncated models never certify: frontier states enter the intervals as
// [0, 1] (probabilities) / [0, +inf) (times) and certainty is kTruncated.
//
// Determinism. Sweeps are Jacobi (read the previous vector, write the
// next), run as grain-blocked common::parallel_for loops with residuals
// parked per block and folded in block order (IEEE max is exact), so every
// interval endpoint is bit-identical at every thread count — the same
// contract gdp::exp and mdp::explore keep. Domains below 16,384 elements
// run their sweeps and reductions inline.
#pragma once

#include <cstdint>
#include <string>

#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/model.hpp"

namespace gdp::mdp::quant {

/// A certified two-sided bound: the true value lies in [lower, upper].
/// Infinite quantities carry lower = upper = +inf.
struct Interval {
  double lower = 0.0;
  double upper = 0.0;

  double width() const { return lower == upper ? 0.0 : upper - lower; }
  bool contains(double v, double slack = 0.0) const {
    return v >= lower - slack && v <= upper + slack;
  }
  bool finite() const;
  bool operator==(const Interval&) const = default;
};

enum class Certainty : std::uint8_t {
  /// Complete model and every interval converged to width <= epsilon (or a
  /// certified infinity): the numbers are two-sided certificates.
  kCertified,
  /// Exploration was truncated: bounds are sound (frontier states count as
  /// "anything") but can never certify.
  kTruncated,
  /// max_iterations elapsed before convergence; bounds are sound but wider
  /// than epsilon.
  kIterationLimit,
};

const char* to_string(Certainty certainty);

struct QuantOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = fully sequential
  /// (bit-identical by construction).
  int threads = 0;

  /// Exploration state cap for the explore-and-analyze convenience.
  std::size_t max_states = 2'000'000;

  /// Certified interval width: iteration stops when upper - lower <=
  /// epsilon everywhere on the domain.
  double epsilon = 1e-6;

  /// Bellman sweep cap per iteration phase (stall detection usually stops
  /// non-converging phases long before this).
  std::size_t max_iterations = 50'000;
};

/// Per-phase iteration accounting for one analyze() call. Sweep counts are
/// deterministic (bit-identical at every thread count): each phase stops on
/// thresholds of residuals computed by a deterministic per-block max
/// reduction. A "stalled" phase ran but ended without certifying — the
/// width float-locked, frontier mass kept it open, or max_iterations hit.
/// Exported through the obs registry as quant.sweeps_* / quant.stalled_phases.
struct AnalyzeStats {
  std::size_t p_max_sweeps = 0;
  std::size_t p_min_sweeps = 0;
  std::size_t e_min_sweeps = 0;
  std::size_t e_max_sweeps = 0;
  std::size_t p_trap_sweeps = 0;
  std::size_t stalled_phases = 0;
};

struct QuantResult {
  std::uint64_t target_set = ~std::uint64_t{0};
  std::size_t num_states = 0;
  /// Nodes of the non-target fragment's MEC quotient (terminals excluded).
  std::size_t num_quotient_nodes = 0;
  /// The qualitative verdict on the same mask, decided from the fragment's
  /// MEC decomposition this analysis runs anyway: equal, field by field and
  /// witness EC included, to check_fair_progress(model, target_set).
  /// progress.num_mecs / num_fair_mecs count the avoiding MECs.
  FairProgressResult progress;
  /// A fair avoiding MEC is reachable without any target meal on the way
  /// (the qualitative complement of p_min = 1).
  bool fair_trap_reachable = false;

  Interval p_min;   // min P(reach target eating set), fair adversaries
  Interval p_max;   // max P(reach target eating set)
  Interval p_trap;  // max P(reach a fair avoiding MEC), meals allowed

  /// Expected steps from the initial state to the first target meal.
  /// e_min counts every step; e_max counts productive steps (dwell inside
  /// avoiding MECs excluded — see the header comment) and is +inf iff a
  /// fair trap is meal-free-reachable. upper = +inf when uncertifiable.
  Interval e_min;
  Interval e_max;

  Certainty certainty = Certainty::kIterationLimit;
  std::size_t sweeps = 0;   // Bellman sweeps across all phases (= stats total)
  AnalyzeStats stats;       // per-phase sweep/stall breakdown
  double epsilon = 1e-6;    // the width both bounds converged to

  /// Quantitative progress certificate: p_min pinned to 1 on a complete
  /// model — the interval analogue of Verdict::kProgressCertain restricted
  /// to meal-free trap reachability.
  bool progress_certain() const {
    return certainty == Certainty::kCertified && p_min.lower >= 1.0 - epsilon;
  }

  std::string summary() const;
};

/// Quantitative analysis of `model` for the target set "some philosopher of
/// `target_set` (bitmask) eats" — the same target the qualitative
/// check_fair_progress(model, set_mask) decides, and whose verdict the
/// result carries as `progress`. Singleton masks give the lockout-freedom
/// quantities of philosopher i. Throws PreconditionError unless the mask
/// names at least one of the model's philosophers (the precondition
/// check_fair_progress shares) and epsilon > 0.
QuantResult analyze(const Model& model, std::uint64_t target_set = ~std::uint64_t{0},
                    QuantOptions options = {});

/// Quantitative analysis of the Markov chain the UNIFORM scheduler induces
/// on `model` (each step schedules each philosopher with probability 1/n):
/// analyze() over a read-only view of the model with one action per state,
/// state s's n rows at weight 1/n each, and one target "somebody eats".
/// With one action there is one adversary, so
///   * p_min = p_max = P(reach E), the chain's hitting probability;
///   * e_min = E[steps to the first meal], every step charged, +inf iff
///     P(reach E) < 1;
///   * e_max equals e_min (nothing is collapsed outside a trap) and p_trap
///     is P(reach a bottom SCC that avoids E);
///   * progress is kProgressFails iff such a bottom SCC exists (its witness
///     is that SCC), num_mecs counts them.
/// Intervals are certified exactly as analyze()'s are, bit-identical at
/// every thread count. The weight is applied in double where the analysis
/// reads a probability (detail::prob_of, the one seam through which a view
/// reweights outcomes), never baked into float copies: those round twice.
QuantResult analyze_uniform(const Model& model, QuantOptions options = {});

/// One-call convenience: explore (at options.threads, capped at
/// options.max_states) + analyze.
QuantResult analyze(const algos::Algorithm& algo, const graph::Topology& t,
                    QuantOptions options = {}, std::uint64_t target_set = ~std::uint64_t{0});

}  // namespace gdp::mdp::quant
