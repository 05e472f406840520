// The explorer's threading contract: mdp::explore produces a BIT-IDENTICAL
// Model (state numbering, CSR offsets, outcome bytes, eater masks, frontier
// flags) and the same StateIndex at every thread count, including
// oversubscribed pools with stealing in play and capped runs. MEC,
// reachability and verdict functions take no thread count, so identical
// models give identical verdicts; the verdict values themselves are pinned
// on the paper's trap instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/witness.hpp"
#include "verdict_expect.hpp"

namespace gdp::mdp {
namespace {

std::vector<int> thread_counts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> counts{1, 2, 4};
  if (hw > 4) counts.push_back(hw);
  return counts;
}

/// Field-by-field model equality through the public API; float payloads
/// compared via memcmp so NaN or signed-zero drift would also be caught.
void expect_models_bit_identical(const Model& ref, const Model& model, int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(ref.num_states(), model.num_states());
  ASSERT_EQ(ref.num_phils(), model.num_phils());
  EXPECT_EQ(ref.truncated(), model.truncated());
  for (StateId s = 0; s < ref.num_states(); ++s) {
    ASSERT_EQ(ref.eaters(s), model.eaters(s)) << "state " << s;
    ASSERT_EQ(ref.frontier(s), model.frontier(s)) << "state " << s;
    for (int p = 0; p < ref.num_phils(); ++p) {
      const auto [rb, re] = ref.row(s, p);
      const auto [mb, me] = model.row(s, p);
      ASSERT_EQ(re - rb, me - mb) << "row (" << s << ", " << p << ")";
      for (const Outcome *ro = rb, *mo = mb; ro != re; ++ro, ++mo) {
        ASSERT_EQ(ro->next, mo->next) << "row (" << s << ", " << p << ")";
        ASSERT_EQ(std::memcmp(&ro->prob, &mo->prob, sizeof(float)), 0)
            << "row (" << s << ", " << p << ") prob " << ro->prob << " vs " << mo->prob;
      }
    }
  }
}

void expect_indexes_equal(const StateIndex& ref, const StateIndex& index) {
  ASSERT_EQ(ref.size(), index.size());
  ASSERT_EQ(ref.flat_keys(), index.flat_keys());
  for (const auto& [key, id] : ref) {
    const std::optional<StateId> found = index.find(key);
    ASSERT_TRUE(found.has_value()) << "state " << id;
    EXPECT_EQ(*found, id);
  }
}

/// Model + StateIndex at every thread count against the threads=1 run.
void expect_explore_thread_invariant(const std::string& algo_name, const graph::Topology& t,
                                     std::size_t max_states = 2'000'000) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);

  StateIndex ref_index;
  const Model ref = explore_indexed(*algo, t, ref_index, {.threads = 1, .max_states = max_states});
  for (const int threads : thread_counts()) {
    StateIndex index;
    const Model model =
        explore_indexed(*algo, t, index, {.threads = threads, .max_states = max_states});
    expect_models_bit_identical(ref, model, threads);
    expect_indexes_equal(ref_index, index);
  }
}

/// Lighter variant for six-figure-state models (the full sweep would take
/// minutes on small CI machines): one 4-thread run against one sequential
/// run, model compared bit for bit.
void expect_explore_thread_invariant_light(const std::string& algo_name,
                                           const graph::Topology& t) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  const Model ref = explore(*algo, t, {.threads = 1});
  expect_models_bit_identical(ref, explore(*algo, t, {.threads = 4}), 4);
}

// --- Topologies x algorithms x thread counts. ---

TEST(ExploreThreads, Lr1Ring3) { expect_explore_thread_invariant("lr1", graph::classic_ring(3)); }
TEST(ExploreThreads, Lr1Ring4) { expect_explore_thread_invariant("lr1", graph::classic_ring(4)); }
TEST(ExploreThreads, Lr1RingWithPendant) {
  expect_explore_thread_invariant("lr1", graph::ring_with_pendant(3));
}
TEST(ExploreThreads, Lr2ParallelArcs3) {
  expect_explore_thread_invariant("lr2", graph::parallel_arcs(3));
}
TEST(ExploreThreads, Gdp1Ring3) { expect_explore_thread_invariant("gdp1", graph::classic_ring(3)); }
TEST(ExploreThreads, Gdp1ParallelArcs3) {
  expect_explore_thread_invariant("gdp1", graph::parallel_arcs(3), 3'000'000);
}
TEST(ExploreThreads, TicketBaselineFig1a) {
  expect_explore_thread_invariant("ticket", graph::fig1a());
}

// Six-figure state spaces: the numbering must stay canonical even when the
// frontier is stolen back and forth for hundreds of thousands of
// expansions (gdp2's guest books, lr2 on a 4-ring).
TEST(ExploreThreads, Gdp2Ring3Large) {
  expect_explore_thread_invariant_light("gdp2", graph::classic_ring(3));
}
TEST(ExploreThreads, Lr2Ring4Large) {
  expect_explore_thread_invariant_light("lr2", graph::classic_ring(4));
}

// The trap graph: LR1's model has a reachable fair EC (Theorem 1 premise),
// so the explore-and-check convenience must report kProgressFails — with
// the same witness — whatever thread count explored the model.
TEST(ExploreThreads, Lr1Fig1aVerdictFails) {
  const auto algo = algos::make_algorithm("lr1");
  const auto ref = check_fair_progress(*algo, graph::fig1a(), {.threads = 1});
  EXPECT_EQ(ref.verdict, Verdict::kProgressFails);
  for (const int threads : thread_counts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testutil::expect_same_verdict(ref,
                                  check_fair_progress(*algo, graph::fig1a(), {.threads = threads}));
  }
}

// Truncated exploration: the cap applies at BFS level boundaries, so a
// capped model is a pure function of (algorithm, topology, cap) and stays
// bit-identical at every thread count, including the frontier flags and the
// truncated() bit.
TEST(ExploreThreads, CappedLevelSyncBitIdentical) {
  expect_explore_thread_invariant("lr1", graph::fig1a(), 500);
}
TEST(ExploreThreads, CappedLevelSyncMidBfs) {
  expect_explore_thread_invariant("gdp1", graph::classic_ring(3), 5'000);
  expect_explore_thread_invariant("ticket", graph::fig1a(), 2'000);
  expect_explore_thread_invariant("lr2", graph::parallel_arcs(3), 9'999);
}

// The exact capped state counts, pinned as literals: the historical
// explorer checked the cap only at its loop top, so a single expansion
// could overshoot max_states by up to n * branches states and the capped
// count depended on traversal order. Level-synchronous truncation stops at
// a level boundary instead — the count may exceed the cap by at most one
// level's discoveries, every state below num_expanded is fully expanded,
// the frontier is exactly the id tail, and every thread count agrees on
// the number.
TEST(ExploreThreads, CappedStateCountsPinned) {
  struct Case {
    const char* algo;
    graph::Topology t;
    std::size_t cap;
    std::size_t states;    // total states in the capped model
    std::size_t expanded;  // states with materialized rows (the id prefix)
  };
  const Case cases[] = {{"lr1", graph::fig1a(), 500, 1'065, 393},
                        {"gdp1", graph::classic_ring(3), 5'000, 5'815, 4'249},
                        {"lr2", graph::parallel_arcs(3), 9'999, 10'520, 9'242}};
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algo) + " on " + c.t.name() + " cap " + std::to_string(c.cap));
    const auto algo = algos::make_algorithm(c.algo);
    const Model ref = explore(*algo, c.t, {.threads = 1, .max_states = c.cap});
    ASSERT_TRUE(ref.truncated());
    EXPECT_GE(ref.num_states(), c.cap);  // the cap is a floor for truncation, never mid-level
    EXPECT_EQ(ref.num_states(), c.states);
    // The unexpanded frontier is the contiguous id tail.
    for (StateId s = 0; s < ref.num_states(); ++s) {
      ASSERT_EQ(ref.frontier(s), s >= c.expanded) << "state " << s;
    }
    for (const int threads : {2, hw}) {
      const Model model = explore(*algo, c.t, {.threads = threads, .max_states = c.cap});
      EXPECT_EQ(model.num_states(), c.states) << "threads=" << threads;
      expect_models_bit_identical(ref, model, threads);
    }
  }
}

// Larger capped runs: the interning epilogue and the frontier tail are
// re-checked byte for byte, StateIndex included, at every thread count.
TEST(ExploreThreads, TruncationPinsAcrossThreadCounts) {
  expect_explore_thread_invariant("gdp2", graph::classic_ring(3), 20'000);
  expect_explore_thread_invariant("lr2", graph::parallel_arcs(4), 12'000);
  expect_explore_thread_invariant("gdp1", graph::ring_with_pendant(3), 8'000);
}

TEST(ExploreThreads, SubsetMasksAgree) {
  const auto algo = algos::make_algorithm("lr1");
  const auto t = graph::ring_with_pendant(3);
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const int threads : {1, hw}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Model model = explore(*algo, t, {.threads = threads});
    // Progress wrt the ring philosophers H = {P0..P2} fails (Theorem 1);
    // global progress is certified.
    EXPECT_EQ(check_fair_progress(model, 0b0111).verdict, Verdict::kProgressFails);
    EXPECT_EQ(check_fair_progress(model).verdict, Verdict::kProgressCertain);
  }
}

TEST(ExploreThreads, RequiresHungryMode) {
  const auto algo = algos::make_algorithm(
      "lr1", algos::AlgoConfig{.think = algos::ThinkMode::kCoin, .think_coin = 0.5});
  EXPECT_THROW(explore(*algo, graph::classic_ring(3), {.threads = 2}), PreconditionError);
}

}  // namespace
}  // namespace gdp::mdp
