// The quantitative checker's contract: sound certified intervals on
// hand-computed MDPs, interval-iteration bracket invariants, bit-identical
// results at every thread count, refusal to certify truncated models, and
// agreement with the qualitative fair-EC verdicts and the uniform
// scheduler's chain (analyze_uniform) on the paper's instances.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/mdp/quant/quant_impl.hpp"
#include "verdict_expect.hpp"

namespace gdp::mdp::quant {
namespace {

constexpr double kInfD = std::numeric_limits<double>::infinity();

/// Hand-built MDP helper: rows in (state-major, philosopher-major) order;
/// rows[s * num_phils + p] lists that action's (prob, next) outcomes.
Model hand_model(int num_phils, const std::vector<std::vector<Outcome>>& rows,
                 std::vector<std::uint64_t> eaters, std::vector<bool> frontier = {},
                 bool truncated = false) {
  std::vector<std::uint64_t> offsets{0};
  std::vector<Outcome> outcomes;
  for (const auto& row : rows) {
    for (const Outcome& o : row) outcomes.push_back(o);
    offsets.push_back(outcomes.size());
  }
  if (frontier.empty()) frontier.assign(eaters.size(), false);
  return Model::build(num_phils, std::move(offsets), std::move(outcomes), std::move(eaters),
                      std::move(frontier), truncated);
}

void expect_point(const Interval& iv, double value, double eps = 1e-6) {
  EXPECT_LE(iv.width(), eps);
  EXPECT_TRUE(iv.contains(value, 1e-9)) << "[" << iv.lower << ", " << iv.upper << "] vs " << value;
}

// --- Hand-computed models. -------------------------------------------------

// Two philosophers, two states: s0 -> meal via P0, P1 busy-waits. The
// {s0, P1} self-loop is an avoiding MEC but not a fair one, so progress is
// certain; one productive step feeds P0 from anywhere.
TEST(QuantHand, CertainTwoState) {
  const Model m = hand_model(2,
                             {{{1.0f, 1}},          // s0, P0: eat
                              {{1.0f, 0}},          // s0, P1: busy-wait
                              {{1.0f, 1}},          // s1, P0
                              {{1.0f, 1}}},         // s1, P1
                             {0, 0b01});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  EXPECT_TRUE(r.progress_certain());
  expect_point(r.p_min, 1.0);
  expect_point(r.p_max, 1.0);
  expect_point(r.p_trap, 0.0);
  expect_point(r.e_min, 1.0);
  expect_point(r.e_max, 1.0);
  EXPECT_EQ(r.progress.num_mecs, 1u);       // {s0} through P1's self-loop
  EXPECT_EQ(r.progress.num_fair_mecs, 0u);  // P0 has no action inside it
  EXPECT_EQ(r.progress.verdict, Verdict::kProgressCertain);
  EXPECT_FALSE(r.fair_trap_reachable);
}

// s2 is a fair trap (both philosophers loop inside): scheduling P1 from s0
// reaches it surely, so the fair-adversary minimum is 0 even though the
// maximum is 1.
TEST(QuantHand, FairTrapThreeState) {
  const Model m = hand_model(2,
                             {{{1.0f, 1}},   // s0, P0: eat
                              {{1.0f, 2}},   // s0, P1: into the trap
                              {{1.0f, 1}},   // s1, P0
                              {{1.0f, 1}},   // s1, P1
                              {{1.0f, 2}},   // s2, P0: loop
                              {{1.0f, 2}}},  // s2, P1: loop
                             {0, 0b01, 0});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  EXPECT_FALSE(r.progress_certain());
  EXPECT_TRUE(r.fair_trap_reachable);
  EXPECT_EQ(r.progress.num_fair_mecs, 1u);
  expect_point(r.p_min, 0.0);
  expect_point(r.p_max, 1.0);
  expect_point(r.p_trap, 1.0);
  expect_point(r.e_min, 1.0);
  EXPECT_EQ(r.e_max.lower, kInfD);  // certified infinite
  EXPECT_EQ(r.e_max.upper, kInfD);
  // The qualitative checker must agree, and the analysis carries its
  // verdict: the trap {s2} is the witness.
  EXPECT_EQ(check_fair_progress(m).verdict, Verdict::kProgressFails);
  ASSERT_TRUE(r.progress.witness.has_value());
  EXPECT_EQ(r.progress.witness->states, std::vector<StateId>{2});
}

// Geometric meal: P0's action eats with probability 1/2 and retries
// otherwise, so every expected-time notion is exactly 2; dwell on P1's
// self-loop is unproductive and does not change the worst case.
TEST(QuantHand, GeometricLoop) {
  const Model m = hand_model(2,
                             {{{0.5f, 1}, {0.5f, 0}},  // s0, P0: coin
                              {{1.0f, 0}},             // s0, P1: busy-wait
                              {{1.0f, 1}},             // s1, P0
                              {{1.0f, 1}}},            // s1, P1
                             {0, 0b01});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  expect_point(r.p_min, 1.0);
  expect_point(r.p_max, 1.0);
  expect_point(r.e_min, 2.0);
  expect_point(r.e_max, 2.0);
}

// A coin that can land in an absorbing non-eating dead end: every
// probability is exactly 1/2 and no scheduler reaches the meal surely, so
// both expected times are certified infinite.
TEST(QuantHand, HalfTrapHalfMeal) {
  const Model m = hand_model(2,
                             {{{0.5f, 1}, {0.5f, 2}},  // s0, P0: coin between meal and trap
                              {{1.0f, 0}},             // s0, P1: busy-wait
                              {{1.0f, 1}},             // s1, P0
                              {{1.0f, 1}},             // s1, P1
                              {{1.0f, 2}},             // s2, P0: loop
                              {{1.0f, 2}}},            // s2, P1: loop
                             {0, 0b01, 0});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  expect_point(r.p_min, 0.5);
  expect_point(r.p_max, 0.5);
  expect_point(r.p_trap, 0.5);
  EXPECT_EQ(r.e_min.lower, kInfD);  // Pmax < 1: no scheduler eats surely
  EXPECT_EQ(r.e_max.lower, kInfD);
}

// Lockout-style subset target: only P1's meals count. P0 eats and loops
// back; a fair adversary can starve P1 forever only if some fair avoiding
// MEC exists — here P1 always gets its meal once scheduled.
TEST(QuantHand, SubsetTargetMask) {
  const Model m = hand_model(2,
                             {{{1.0f, 1}},   // s0, P0: P0 eats
                              {{1.0f, 2}},   // s0, P1: P1 eats
                              {{1.0f, 0}},   // s1, P0: back to start
                              {{1.0f, 2}},   // s1, P1
                              {{1.0f, 2}},   // s2, P0
                              {{1.0f, 2}}},  // s2, P1
                             {0, 0b01, 0b10});
  const QuantResult whole = analyze(m, ~std::uint64_t{0});
  expect_point(whole.p_min, 1.0);
  // Target = P1 only: s1 (P0 eating) is an ordinary state of the fragment.
  const QuantResult p1 = analyze(m, 0b10);
  EXPECT_EQ(p1.certainty, Certainty::kCertified);
  expect_point(p1.p_min, 1.0);
  expect_point(p1.p_max, 1.0);
}

// One action of 25 float outcomes of 1.0f/25 into a meal: the stored mass
// sums to 0.99999998, so the numeric Pmax bracket ends just short of 1. No
// fair trap exists and the model is complete, so every probability is 1
// qualitatively and the first meal takes exactly one step; a bracket a few
// ulps short of 1 must not certify an infinite e_min (min above max).
TEST(QuantHand, FloatMassShortOfOneStaysFinite) {
  const std::vector<Outcome> to_meal(25, Outcome{1.0f / 25, 1});
  const Model m = hand_model(1, {to_meal, {{1.0f, 1}}}, {0, 1});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified) << r.summary();
  EXPECT_EQ(r.p_min, (Interval{1.0, 1.0}));
  EXPECT_EQ(r.p_max, (Interval{1.0, 1.0}));
  EXPECT_EQ(r.e_min, (Interval{1.0, 1.0})) << r.summary();
  expect_point(r.e_max, 1.0);
}

// --- Truncated-model refusal. ----------------------------------------------

TEST(QuantTruncated, NeverClaimsCertainty) {
  const auto algo = algos::make_algorithm("lr1");
  QuantOptions opts;
  opts.max_states = 500;
  const QuantResult r = analyze(*algo, graph::fig1a(), opts);
  EXPECT_EQ(r.certainty, Certainty::kTruncated);
  EXPECT_FALSE(r.progress_certain());
  // Sound but unknowing: probability bounds straddle, time upper bounds
  // are infinite unless the lower bound already certifies infinity.
  EXPECT_LE(r.p_min.lower, r.p_min.upper);
  EXPECT_EQ(r.e_min.upper, kInfD);
  EXPECT_EQ(r.e_max.upper, kInfD);
}

TEST(QuantTruncated, HandBuiltFrontierStraddles) {
  // s0 steps into an unexplored frontier state: nothing can be certified.
  const Model m = hand_model(1, {{{1.0f, 1}}, {}}, {0, 0}, {false, true}, true);
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kTruncated);
  EXPECT_EQ(r.p_min.lower, 0.0);
  EXPECT_EQ(r.p_min.upper, 1.0);
  EXPECT_EQ(r.p_max.lower, 0.0);
  EXPECT_EQ(r.p_max.upper, 1.0);
  EXPECT_FALSE(r.progress_certain());
}

// --- Bracket invariants. ---------------------------------------------------

// Interval iteration must bracket from both sides: a coarser epsilon stops
// earlier, so its probability interval contains every finer one (the lower
// bound only rises, the upper only falls), and upper >= lower throughout.
TEST(QuantBrackets, EpsilonNesting) {
  const auto algo = algos::make_algorithm("lr1");
  const Model m = explore(*algo, graph::parallel_arcs(3));
  QuantResult prev;
  bool have_prev = false;
  for (const double eps : {1e-2, 1e-4, 1e-6}) {
    QuantOptions opts;
    opts.epsilon = eps;
    const QuantResult r = analyze(m, ~std::uint64_t{0}, opts);
    for (const Interval* iv : {&r.p_min, &r.p_max, &r.p_trap, &r.e_min, &r.e_max}) {
      EXPECT_GE(iv->upper, iv->lower);
    }
    if (have_prev) {
      EXPECT_GE(r.p_min.lower + 1e-12, prev.p_min.lower);
      EXPECT_LE(r.p_min.upper - 1e-12, prev.p_min.upper);
      EXPECT_GE(r.p_max.lower + 1e-12, prev.p_max.lower);
      EXPECT_LE(r.p_max.upper - 1e-12, prev.p_max.upper);
      EXPECT_GE(r.p_trap.lower + 1e-12, prev.p_trap.lower);
      EXPECT_LE(r.p_trap.upper - 1e-12, prev.p_trap.upper);
    }
    prev = r;
    have_prev = true;
  }
  EXPECT_LE(prev.p_min.width(), 1e-6);
  EXPECT_LE(prev.p_max.width(), 1e-6);
}

// --- Thread-count determinism. ---------------------------------------------

std::vector<int> quant_thread_counts() {
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> counts{1, 2};
  if (hw > 2) counts.push_back(hw);
  return counts;
}

void expect_identical_intervals(const QuantResult& a, const QuantResult& b) {
  EXPECT_EQ(a.p_min, b.p_min);
  EXPECT_EQ(a.p_max, b.p_max);
  EXPECT_EQ(a.p_trap, b.p_trap);
  EXPECT_EQ(a.e_min, b.e_min);
  EXPECT_EQ(a.e_max, b.e_max);
  EXPECT_EQ(a.certainty, b.certainty);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.num_quotient_nodes, b.num_quotient_nodes);
  testutil::expect_same_verdict(a.progress, b.progress);
}

TEST(QuantDeterminism, BitIdenticalAcrossThreadCounts) {
  struct Case {
    const char* algo;
    graph::Topology t;
    bool uniform = false;  // analyze_uniform instead of analyze
  };
  // gdp2 on parallel(4) has a 99,328-node quotient and gdp2c's uniform
  // chain on ring(3) spans 166,589 states, both past the inline cutoff, so
  // their quotient builds, sweeps and residual reductions run on the pool
  // at threads > 1; the small models pin the inline path.
  const Case cases[] = {{"lr1", graph::classic_ring(3)},
                        {"lr1", graph::parallel_arcs(3)},
                        {"gdp1", graph::classic_ring(3)},
                        {"gdp2", graph::parallel_arcs(4)},
                        {"gdp2c", graph::classic_ring(3), true}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algo) + " on " + c.t.name() + (c.uniform ? " (uniform)" : ""));
    const auto algo = algos::make_algorithm(c.algo);
    const Model m = explore(*algo, c.t);
    QuantResult base;
    bool have_base = false;
    for (const int threads : quant_thread_counts()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      QuantOptions opts;
      opts.threads = threads;
      const QuantResult r =
          c.uniform ? analyze_uniform(m, opts) : analyze(m, ~std::uint64_t{0}, opts);
      if (std::string(c.algo) == "gdp2" || c.uniform) {
        EXPECT_GE(r.num_quotient_nodes, detail::kInlineNodes);
      }
      if (have_base) {
        expect_identical_intervals(base, r);
      } else {
        base = r;
        have_base = true;
      }
    }
  }
}

// --- The acceptance matrix: every (algorithm x topology) instance the
// parallel-engine suite pins, quantified. kProgressCertain instances must
// certify Pmin = 1; kProgressFails instances must certify the gap
// (Pmin < 1 or a positive trap probability); intervals are certified to
// width <= 1e-6 and identical at threads {1, 2, hw}; and the verdict the
// analysis carries is check_fair_progress's, field by field and witness EC
// included, at every thread count. ---

void expect_quant_matches_verdict(const std::string& algo_name, const graph::Topology& t) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  const Model m = explore(*algo, t);
  ASSERT_FALSE(m.truncated());
  const FairProgressResult verdict = check_fair_progress(m);

  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  QuantResult base;
  bool have_base = false;
  for (const int threads : {1, 2, hw}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QuantOptions opts;
    opts.threads = threads;
    const QuantResult r = analyze(m, ~std::uint64_t{0}, opts);
    testutil::expect_same_verdict(r.progress, verdict);
    ASSERT_EQ(r.certainty, Certainty::kCertified);
    EXPECT_LE(r.p_min.width(), 1e-6);
    EXPECT_LE(r.p_max.width(), 1e-6);
    EXPECT_LE(r.p_trap.width(), 1e-6);
    if (verdict.verdict == Verdict::kProgressCertain) {
      EXPECT_TRUE(r.progress_certain());
      EXPECT_GE(r.p_min.lower, 1.0 - 1e-6);
      EXPECT_EQ(r.p_trap.upper, 0.0);
      EXPECT_TRUE(r.e_max.finite()) << "certified progress must bound the worst case";
      EXPECT_GE(r.e_max.lower + 1e-6, r.e_min.upper - 1e-6);
    } else {
      ASSERT_EQ(verdict.verdict, Verdict::kProgressFails);
      EXPECT_TRUE(r.p_min.upper < 1.0 || r.p_trap.lower > 0.0)
          << "a failing verdict must be quantitatively visible";
      EXPECT_EQ(r.e_max.lower, kInfD);
    }
    if (have_base) {
      expect_identical_intervals(base, r);
    } else {
      base = r;
      have_base = true;
    }
  }
}

TEST(QuantMatrix, Lr1Ring3) { expect_quant_matches_verdict("lr1", graph::classic_ring(3)); }
TEST(QuantMatrix, Lr1Ring4) { expect_quant_matches_verdict("lr1", graph::classic_ring(4)); }
TEST(QuantMatrix, Lr1RingWithPendant) {
  expect_quant_matches_verdict("lr1", graph::ring_with_pendant(3));
}
TEST(QuantMatrix, Lr1Fig1a) { expect_quant_matches_verdict("lr1", graph::fig1a()); }
TEST(QuantMatrix, Lr2ParallelArcs3) { expect_quant_matches_verdict("lr2", graph::parallel_arcs(3)); }
TEST(QuantMatrix, Gdp1Ring3) { expect_quant_matches_verdict("gdp1", graph::classic_ring(3)); }
TEST(QuantMatrix, Gdp1ParallelArcs3) {
  expect_quant_matches_verdict("gdp1", graph::parallel_arcs(3));
}
TEST(QuantMatrix, TicketFig1a) { expect_quant_matches_verdict("ticket", graph::fig1a()); }
TEST(QuantMatrix, Gdp2Ring3) { expect_quant_matches_verdict("gdp2", graph::classic_ring(3)); }
TEST(QuantMatrix, Lr2Ring4) { expect_quant_matches_verdict("lr2", graph::classic_ring(4)); }

// --- Consistency with the uniform scheduler's chain: the uniform scheduler
// is one fair adversary, so its certified reach probability must overlap
// [Pmin, Pmax] and its expected first-meal time cannot beat e_min, and the
// qualitative verdict must match the quantitative certificate on every
// instance of the cross-check matrix. ---

void expect_chain_inside_bounds(const std::string& algo_name, const graph::Topology& t,
                                std::size_t max_states) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  CheckOptions copts;
  copts.max_states = max_states;
  const Model m = explore(*algo, t, copts);

  QuantOptions opts;
  opts.max_states = max_states;
  const QuantResult r = analyze(m, ~std::uint64_t{0}, opts);
  if (m.truncated()) {
    // The refusal side of the satellite: an incomplete model never claims.
    EXPECT_EQ(r.certainty, Certainty::kTruncated);
    EXPECT_FALSE(r.progress_certain());
    return;
  }
  ASSERT_EQ(r.certainty, Certainty::kCertified);

  const QuantResult uniform = analyze_uniform(m, opts);
  ASSERT_EQ(uniform.certainty, Certainty::kCertified);
  EXPECT_NEAR(uniform.p_min.lower, uniform.p_max.lower, opts.epsilon);  // one adversary
  EXPECT_GE(uniform.p_max.upper, r.p_min.lower);
  EXPECT_LE(uniform.p_min.lower, r.p_max.upper);
  // Every counted uniform step is also counted by e_min.
  EXPECT_GE(uniform.e_min.upper, r.e_min.lower);

  const FairProgressResult verdict = check_fair_progress(m);
  if (verdict.verdict == Verdict::kProgressCertain) {
    EXPECT_TRUE(r.progress_certain());
  } else {
    EXPECT_TRUE(r.p_min.upper < 1.0 || r.p_trap.lower > 0.0);
  }
}

TEST(QuantChainCrossCheck, RingChordParallelStar) {
  const graph::Topology topologies[] = {graph::classic_ring(3), graph::ring_with_chord(4),
                                        graph::parallel_arcs(3), graph::star(3)};
  const char* algorithms[] = {"lr1", "lr2", "gdp1", "gdp2"};
  for (const auto& t : topologies) {
    for (const char* algo : algorithms) {
      // Everything but lr1 explodes past 2M states on the chord topology; a
      // tight cap keeps the matrix fast and those cells exercise the
      // truncation-refusal path instead (lr1/chord stays the complete
      // chord representative).
      const bool heavy = t.num_phils() > 4 && std::string(algo) != "lr1";
      expect_chain_inside_bounds(algo, t, heavy ? 300'000 : 2'000'000);
    }
  }
}

// --- Bit pins: every interval endpoint (hex float) and the five per-phase
// sweep counts, recorded before the fused one-pass sweeps replaced the
// two-pass ones. The fused kernels evaluate each accumulator in the same
// addition order and fold the per-block max-reductions in index order, so
// they must reproduce this table exactly, inline (small quotients) and on
// the pool (gdp2/parallel(4): 99,328 quotient nodes) alike. ---

struct QuantPin {
  const char* algo;
  const char* topology;
  int threads;
  std::size_t states;
  Interval p_min, p_max, p_trap, e_min, e_max;
  std::size_t sweeps[5];  // p_max, p_min, e_min, e_max, p_trap
};

graph::Topology pin_topology(const std::string& name) {
  for (graph::Topology t : {graph::classic_ring(3), graph::parallel_arcs(3),
                            graph::ring_with_pendant(3), graph::parallel_arcs(4)}) {
    if (t.name() == name) return t;
  }
  ADD_FAILURE() << "unknown pin topology " << name;
  return graph::classic_ring(3);
}

TEST(QuantPins, BitIdenticalToRecordedTable) {
  // ring_pendant(3) runs capped at 50k states (the truncation path).
  const QuantPin pins[] = {
      {"lr2", "ring(3)", 1, 19009,
       {0x1p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x0p+0},
       {0x1.4p+2, 0x1.4p+2}, {0x1.37ffffffe5ap+4, 0x1.380000ffc5004p+4},
       {5, 0, 11, 126, 0}},
      {"lr2", "ring(3)", 4, 19009,
       {0x1p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x0p+0},
       {0x1.4p+2, 0x1.4p+2}, {0x1.37ffffffe5ap+4, 0x1.380000ffc5004p+4},
       {5, 0, 11, 126, 0}},
      {"lr2", "parallel(3)", 1, 17186,
       {0x1p-2, 0x1p-2}, {0x1p+0, 0x1p+0}, {0x1.8p-1, 0x1.8p-1},
       {0x1.4p+2, 0x1.4p+2}, {kInfD, kInfD},
       {5, 83, 11, 0, 97}},
      {"lr2", "parallel(3)", 4, 17186,
       {0x1p-2, 0x1p-2}, {0x1p+0, 0x1p+0}, {0x1.8p-1, 0x1.8p-1},
       {0x1.4p+2, 0x1.4p+2}, {kInfD, kInfD},
       {5, 83, 11, 0, 97}},
      {"lr2", "ring_pendant(3)", 1, 50788,
       {0x1.5ffffff6268p-1, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x1p+0},
       {0x1.4p+2, kInfD}, {0x1.0effff7538eacp+5, kInfD},
       {6, 133, 6, 259, 1}},
      {"lr2", "ring_pendant(3)", 4, 50788,
       {0x1.5ffffff6268p-1, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x1p+0},
       {0x1.4p+2, kInfD}, {0x1.0effff7538eacp+5, kInfD},
       {6, 133, 6, 259, 1}},
      {"gdp2", "ring(3)", 1, 169352,
       {0x1p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x0p+0},
       {0x1.8000002p+2, 0x1.8000002p+2}, {0x1.b38e3a2719c52p+4, 0x1.b38e3b30391d4p+4},
       {6, 0, 13, 116, 0}},
      {"gdp2", "ring(3)", 4, 169352,
       {0x1p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x0p+0},
       {0x1.8000002p+2, 0x1.8000002p+2}, {0x1.b38e3a2719c52p+4, 0x1.b38e3b30391d4p+4},
       {6, 0, 13, 116, 0}},
      {"gdp2", "parallel(3)", 1, 6544,
       {0x1p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x0p+0},
       {0x1.8p+2, 0x1.8p+2}, {0x1.8p+3, 0x1.8p+3},
       {6, 0, 13, 25, 0}},
      {"gdp2", "parallel(3)", 4, 6544,
       {0x1p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x0p+0},
       {0x1.8p+2, 0x1.8p+2}, {0x1.8p+3, 0x1.8p+3},
       {6, 0, 13, 25, 0}},
      {"gdp2", "ring_pendant(3)", 1, 53385,
       {0x0p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x1p+0},
       {0x1.8p+2, kInfD}, {0x1.8p+4, kInfD},
       {7, 1, 7, 56, 1}},
      {"gdp2", "ring_pendant(3)", 4, 53385,
       {0x0p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x1p+0},
       {0x1.8p+2, kInfD}, {0x1.8p+4, kInfD},
       {7, 1, 7, 56, 1}},
      {"gdp2", "parallel(4)", 1, 132608,
       {0x1p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x0p+0},
       {0x1.8p+2, 0x1.8p+2}, {0x1.ep+3, 0x1.ep+3},
       {6, 0, 13, 31, 0}},
      {"gdp2", "parallel(4)", 4, 132608,
       {0x1p+0, 0x1p+0}, {0x1p+0, 0x1p+0}, {0x0p+0, 0x0p+0},
       {0x1.8p+2, 0x1.8p+2}, {0x1.ep+3, 0x1.ep+3},
       {6, 0, 13, 31, 0}},
  };
  for (const QuantPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.algo) + " on " + pin.topology + " threads=" +
                 std::to_string(pin.threads));
    const graph::Topology t = pin_topology(pin.topology);
    const auto algo = algos::make_algorithm(pin.algo);
    CheckOptions copts;
    copts.threads = pin.threads;
    if (t.name() == graph::ring_with_pendant(3).name()) copts.max_states = 50'000;
    const Model m = explore(*algo, t, copts);
    ASSERT_EQ(m.num_states(), pin.states);
    QuantOptions opts;
    opts.threads = pin.threads;
    const QuantResult r = analyze(m, ~std::uint64_t{0}, opts);
    EXPECT_EQ(r.p_min, pin.p_min);
    EXPECT_EQ(r.p_max, pin.p_max);
    EXPECT_EQ(r.p_trap, pin.p_trap);
    EXPECT_EQ(r.e_min, pin.e_min);
    EXPECT_EQ(r.e_max, pin.e_max);
    EXPECT_EQ(r.stats.p_max_sweeps, pin.sweeps[0]);
    EXPECT_EQ(r.stats.p_min_sweeps, pin.sweeps[1]);
    EXPECT_EQ(r.stats.e_min_sweeps, pin.sweeps[2]);
    EXPECT_EQ(r.stats.e_max_sweeps, pin.sweeps[3]);
    EXPECT_EQ(r.stats.p_trap_sweeps, pin.sweeps[4]);
  }
}

}  // namespace
}  // namespace gdp::mdp::quant
