// Real-thread runtime: mutual exclusion under hardware concurrency, stop
// conditions, algorithm coverage.
#include <gtest/gtest.h>

#include <string>

#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/runtime/atomic_fork.hpp"
#include "gdp/runtime/runtime.hpp"
#include "gdp/runtime/shared_books.hpp"

namespace gdp::runtime {
namespace {

TEST(AtomicFork, TestAndSetSemantics) {
  AtomicFork fork;
  EXPECT_TRUE(fork.is_free());
  EXPECT_TRUE(fork.try_take(3));
  EXPECT_FALSE(fork.try_take(4));
  EXPECT_EQ(fork.holder(), 3);
  fork.release(3);
  EXPECT_TRUE(fork.try_take(4));
  fork.release(4);
}

TEST(AtomicFork, NrReadableByAnyoneWritableByHolder) {
  AtomicFork fork;
  EXPECT_EQ(fork.nr(), 0);
  ASSERT_TRUE(fork.try_take(1));
  fork.set_nr(1, 42);
  EXPECT_EQ(fork.nr(), 42);
  fork.release(1);
  EXPECT_EQ(fork.nr(), 42);  // nr persists across holders
}

TEST(ForkBooks, CondFollowsGuestBook) {
  ForkBooks books(3);
  books.insert_request(0);
  books.insert_request(1);
  EXPECT_TRUE(books.cond_holds(0));
  EXPECT_TRUE(books.cond_holds(1));
  books.mark_used(0);
  EXPECT_FALSE(books.cond_holds(0));  // 1 requests and used less recently
  EXPECT_TRUE(books.cond_holds(1));
  books.mark_used(1);
  EXPECT_TRUE(books.cond_holds(0));
  EXPECT_FALSE(books.cond_holds(1));
  // Once 0 deregisters, nothing blocks 1 (Cond only heeds *requesters*).
  books.remove_request(0);
  EXPECT_TRUE(books.cond_holds(1));
}

class RuntimeAlgorithms : public ::testing::TestWithParam<std::string> {};

TEST_P(RuntimeAlgorithms, MealsAndMutualExclusionOnFig1a) {
  RuntimeConfig cfg;
  cfg.algorithm = GetParam();
  cfg.target_meals = 2'000;
  cfg.duration = std::chrono::milliseconds(5'000);  // safety net
  if (GetParam() == "colored") {
    // Alternating colors need an even classic ring: colored's validate(),
    // not an unsupported-name check, refuses fig1a.
    try {
      run_threads(graph::fig1a(), cfg);
      ADD_FAILURE() << "colored ran on fig1a";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("colored needs"), std::string::npos) << e.what();
    }
    return;
  }
  const auto r = run_threads(graph::fig1a(), cfg);
  EXPECT_EQ(r.exclusion_violations, 0u);
  if (GetParam() == "ticket") {
    // Ticket may deadlock off the classic ring — that is experiment E9's
    // point; the run must still stop on whichever condition fires first.
    EXPECT_TRUE(r.total_meals >= 2'000u || r.elapsed_seconds >= 5.0)
        << r.total_meals << " meals in " << r.elapsed_seconds << " s";
    return;
  }
  EXPECT_GE(r.total_meals, 2'000u);
  EXPECT_GT(r.meals_per_second, 0.0);
}

TEST_P(RuntimeAlgorithms, RingRunsClean) {
  RuntimeConfig cfg;
  cfg.algorithm = GetParam();
  cfg.target_meals = 1'000;
  cfg.duration = std::chrono::milliseconds(5'000);
  const auto r = run_threads(graph::classic_ring(4), cfg);
  EXPECT_EQ(r.exclusion_violations, 0u);
  EXPECT_GE(r.total_meals, 1'000u);
}

INSTANTIATE_TEST_SUITE_P(All, RuntimeAlgorithms,
                         ::testing::Values("lr1", "lr2", "gdp1", "gdp2", "gdp2c", "ordered",
                                           "colored", "ticket"),
                         [](const auto& info) { return info.param; });

TEST(Runtime, CourteousVariantFeedsEveryone) {
  // Duration-based stop: every thread gets wall-clock time to run (a meal
  // target alone can be hit before late-starting threads join the table).
  RuntimeConfig cfg;
  cfg.algorithm = "gdp2c";
  cfg.duration = std::chrono::milliseconds(400);
  const auto r = run_threads(graph::classic_ring(6), cfg);
  EXPECT_TRUE(r.everyone_ate());
  EXPECT_EQ(r.exclusion_violations, 0u);
}

TEST(Runtime, DurationStopWorks) {
  RuntimeConfig cfg;
  cfg.algorithm = "gdp1";
  cfg.duration = std::chrono::milliseconds(100);
  const auto r = run_threads(graph::classic_ring(4), cfg);
  EXPECT_GT(r.total_meals, 0u);
  EXPECT_LT(r.elapsed_seconds, 3.0);
}

TEST(Runtime, LatencyPercentilesOrdered) {
  RuntimeConfig cfg;
  cfg.algorithm = "gdp1";
  cfg.target_meals = 2'000;
  cfg.duration = std::chrono::milliseconds(5'000);
  const auto r = run_threads(graph::fig1b(), cfg);
  EXPECT_LE(r.hunger_p50_ns, r.hunger_p99_ns);
  EXPECT_LE(r.hunger_p99_ns, r.hunger_max_ns);
}

TEST(Runtime, RejectsBadConfigs) {
  RuntimeConfig cfg;
  cfg.algorithm = "arbiter";  // simulation-only baseline
  cfg.target_meals = 10;
  EXPECT_THROW(run_threads(graph::classic_ring(4), cfg), PreconditionError);
  cfg.algorithm = "colored";  // alternating colors need an even ring
  EXPECT_THROW(run_threads(graph::classic_ring(5), cfg), PreconditionError);

  RuntimeConfig none;
  none.algorithm = "gdp1";
  EXPECT_THROW(run_threads(graph::classic_ring(4), none), PreconditionError);  // no stop

  RuntimeConfig bad_m;
  bad_m.algorithm = "gdp1";
  bad_m.target_meals = 10;
  bad_m.m = 2;  // < k
  EXPECT_THROW(run_threads(graph::classic_ring(4), bad_m), PreconditionError);
  bad_m.m = 70'000;  // beyond the 16-bit nr field: nr would wrap to 0, "unnumbered"
  EXPECT_THROW(run_threads(graph::classic_ring(4), bad_m), PreconditionError);

  RuntimeConfig bad_bias;
  bad_bias.algorithm = "lr1";
  bad_bias.target_meals = 10;
  bad_bias.p_left = 1.5;
  EXPECT_THROW(run_threads(graph::classic_ring(4), bad_bias), PreconditionError);

  // A ticket run off the classic ring may close a circular wait, so a meal
  // target alone is refused there; on the ring n-1 tickets rule it out.
  RuntimeConfig ticket;
  ticket.algorithm = "ticket";
  ticket.target_meals = 10;
  EXPECT_THROW(run_threads(graph::fig1a(), ticket), PreconditionError);
  const auto ring = run_threads(graph::classic_ring(4), ticket);
  EXPECT_GE(ring.total_meals, 10u);
}

TEST(Runtime, ContentionWorkloadStillExclusive) {
  RuntimeConfig cfg;
  cfg.algorithm = "gdp1";
  cfg.target_meals = 1'000;
  cfg.duration = std::chrono::milliseconds(8'000);
  cfg.eat_work = 200;
  cfg.think_work = 50;
  const auto r = run_threads(graph::parallel_arcs(6), cfg);
  EXPECT_EQ(r.exclusion_violations, 0u);
  EXPECT_GE(r.total_meals, 1'000u);
}

}  // namespace
}  // namespace gdp::runtime
