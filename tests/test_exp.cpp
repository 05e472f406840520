// The gdp::exp campaign layer: grid enumeration, deterministic seeding, the
// work-stealing Runner's thread-count-independence contract, aggregate
// folding, probes, skip/validation and error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "gdp/common/check.hpp"
#include "gdp/exp/runner.hpp"
#include "gdp/exp/seeding.hpp"
#include "gdp/graph/builders.hpp"

namespace gdp::exp {
namespace {

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "test";
  spec.seed = 7;
  spec.trials = 5;
  spec.topologies = {graph::classic_ring(3), graph::parallel_arcs(3)};
  spec.algorithms = {"lr1", "gdp1"};
  spec.schedulers = {longest_waiting(), uniform()};
  spec.engine.max_steps = 3'000;
  return spec;
}

TEST(Seeding, ReproducibleAndSeedSensitive) {
  EXPECT_EQ(trial_seed(1, 2, 3), trial_seed(1, 2, 3));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(2, 2, 3));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(1, 3, 3));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(1, 2, 4));
}

TEST(Seeding, DistinctAcrossRealisticGrid) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t campaign = 0; campaign < 4; ++campaign) {
    for (std::uint64_t cell = 0; cell < 64; ++cell) {
      for (std::uint64_t trial = 0; trial < 64; ++trial) {
        seen.insert(trial_seed(campaign, cell, trial));
      }
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u * 64u);
}

TEST(Grid, CellEnumerationIsTopologyMajorRowMajor) {
  const auto spec = tiny_spec();
  EXPECT_EQ(num_cells(spec), 8u);
  const auto grid = cells(spec);
  ASSERT_EQ(grid.size(), 8u);
  for (std::size_t i = 0; i < grid.size(); ++i) EXPECT_EQ(grid[i].index, i);
  // Innermost dimension is the scheduler here (configs collapse to 1).
  EXPECT_EQ(grid[0].scheduler, 0u);
  EXPECT_EQ(grid[1].scheduler, 1u);
  EXPECT_EQ(grid[1].algorithm, 0u);
  EXPECT_EQ(grid[2].algorithm, 1u);
  EXPECT_EQ(grid[3].topology, 0u);
  EXPECT_EQ(grid[4].topology, 1u);
}

TEST(Grid, LabelsIncludeConfigOnlyWhenSwept) {
  auto spec = tiny_spec();
  EXPECT_EQ(cell_label(spec, cells(spec)[0]), "ring(3)/lr1/longest-waiting");
  spec.configs = {algos::AlgoConfig{.m = 3}, algos::AlgoConfig{.m = 9}};
  const auto grid = cells(spec);
  EXPECT_EQ(num_cells(spec), 16u);
  EXPECT_EQ(cell_label(spec, grid[1]), "ring(3)/lr1/longest-waiting[m=9]");
}

TEST(Grid, ValidateRejectsDegenerateSpecs) {
  auto spec = tiny_spec();
  spec.trials = 0;
  EXPECT_THROW(validate(spec), PreconditionError);
  spec = tiny_spec();
  spec.algorithms.clear();
  EXPECT_THROW(validate(spec), PreconditionError);
  spec = tiny_spec();
  spec.algorithms.push_back("no-such-algorithm");
  EXPECT_THROW(validate(spec), PreconditionError);
  spec = tiny_spec();
  spec.schedulers.push_back(SchedulerSpec{"broken", nullptr, nullptr});
  EXPECT_THROW(validate(spec), PreconditionError);
  EXPECT_NO_THROW(validate(tiny_spec()));
}

// The core gdp::exp contract: aggregates are bit-identical regardless of
// thread count, including an oversubscribed pool with stealing in play.
TEST(RunnerTest, AggregateOutputIsThreadCountIndependent) {
  const auto spec = tiny_spec();
  const auto serial = run_campaign(spec, 1);
  const auto parallel = run_campaign(spec, 8);
  EXPECT_EQ(serial.csv(), parallel.csv());
  EXPECT_EQ(serial.json(), parallel.json());
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].meals().mean(), parallel.cells[i].meals().mean()) << i;
    EXPECT_EQ(serial.cells[i].max_hunger().max(), parallel.cells[i].max_hunger().max()) << i;
  }
}

TEST(RunnerTest, RerunIsReproducibleAndSeedSensitive) {
  const auto spec = tiny_spec();
  EXPECT_EQ(run_campaign(spec, 2).csv(), run_campaign(spec, 3).csv());
  auto reseeded = spec;
  reseeded.seed = spec.seed + 1;
  EXPECT_NE(run_campaign(reseeded, 2).csv(), run_campaign(spec, 2).csv());
}

TEST(RunnerTest, MoreThreadsThanTasks) {
  auto spec = tiny_spec();
  spec.trials = 1;
  spec.topologies = {graph::classic_ring(3)};
  spec.algorithms = {"gdp1"};
  spec.schedulers = {longest_waiting()};
  const auto result = Runner(RunnerOptions{64}).run(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.at(0).trials(), 1u);
  EXPECT_GT(result.at(0).meals().mean(), 0.0);
}

TEST(RunnerTest, ProbeCountsTrapOutcomes) {
  CampaignSpec spec;
  spec.name = "trap";
  spec.seed = 3;
  spec.trials = 20;
  spec.topologies = {graph::fig1a()};
  spec.algorithms = {"lr1"};
  spec.schedulers = {trap_fig1a()};
  spec.engine.max_steps = 8'000;
  const auto result = run_campaign(spec, 4);
  const auto& cell = result.at(0);
  // The paper lower-bounds the trap's success at 1/4; with 20 trials at
  // >= 1/2 empirically, zero hits would mean the probe is not wired up.
  EXPECT_GT(cell.probe_hits(), 0u);
  EXPECT_LE(cell.probe_hits(), cell.trials());
  const auto ci = cell.probe_ci();
  EXPECT_LE(ci.low, static_cast<double>(cell.probe_hits()) / 20.0);
  EXPECT_GE(ci.high, static_cast<double>(cell.probe_hits()) / 20.0);
}

TEST(RunnerTest, SkipInvalidMarksCellInsteadOfThrowing) {
  CampaignSpec spec;
  spec.trials = 2;
  spec.topologies = {graph::classic_ring(3)};  // odd ring: colored rejects it
  spec.algorithms = {"colored", "gdp1"};
  spec.schedulers = {longest_waiting()};
  spec.engine.max_steps = 1'000;
  EXPECT_THROW(run_campaign(spec, 1), PreconditionError);
  spec.skip_invalid = true;
  const auto result = run_campaign(spec, 2);
  EXPECT_TRUE(result.at(0).skipped());
  EXPECT_EQ(result.at(0).trials(), 0u);
  EXPECT_FALSE(result.at(1).skipped());
  EXPECT_EQ(result.at(1).trials(), 2u);
  EXPECT_NE(result.csv().find(",0,1,"), std::string::npos);  // trials=0, skipped=1
  EXPECT_NE(result.json().find("\"skipped\":true"), std::string::npos);
}

TEST(RunnerTest, SkipInvalidStillRefusesOutOfRangeConfigs) {
  // skip_invalid skips topologies an algorithm cannot run on; a config out
  // of range on every topology is a spec error, not a skipped cell.
  CampaignSpec spec;
  spec.trials = 1;
  spec.topologies = {graph::classic_ring(3)};
  spec.algorithms = {"lr1"};
  spec.schedulers = {longest_waiting()};
  spec.engine.max_steps = 100;
  spec.skip_invalid = true;
  spec.configs = {algos::AlgoConfig{.p_left = 1.5}};
  EXPECT_THROW(run_campaign(spec, 1), PreconditionError);
  spec.configs = {algos::AlgoConfig{.think = algos::ThinkMode::kCoin, .think_coin = 0.0}};
  EXPECT_THROW(run_campaign(spec, 1), PreconditionError);
  spec.configs = {algos::AlgoConfig{.m = -1}};
  EXPECT_THROW(run_campaign(spec, 1), PreconditionError);
  spec.algorithms = {"gdp1"};
  spec.configs = {algos::AlgoConfig{.m = 70'000}};
  EXPECT_THROW(validate(spec), PreconditionError);
  // A valid config still runs.
  spec.configs = {algos::AlgoConfig{.m = 5}};
  EXPECT_FALSE(run_campaign(spec, 1).at(0).skipped());
}

TEST(RunnerTest, WorkerExceptionPropagates) {
  auto spec = tiny_spec();
  spec.schedulers = {SchedulerSpec{
      "bomb",
      [](const algos::Algorithm&) -> std::unique_ptr<sim::Scheduler> {
        throw std::runtime_error("boom");
      },
      nullptr}};
  EXPECT_THROW(run_campaign(spec, 4), std::runtime_error);
  EXPECT_THROW(run_campaign(spec, 1), std::runtime_error);
}

TEST(AggregateTest, DeadlockedCellsHaveNoFirstMealSamples) {
  CampaignSpec spec;
  spec.trials = 3;
  spec.topologies = {graph::fig1a()};  // ticket deadlocks off the ring
  spec.algorithms = {"ticket"};
  spec.schedulers = {longest_waiting()};
  spec.engine.max_steps = 5'000;
  const auto result = run_campaign(spec, 2);
  const auto& cell = result.at(0);
  EXPECT_EQ(cell.deadlocks(), cell.trials());
  EXPECT_EQ(cell.no_meal_trials(), cell.trials());
  EXPECT_EQ(cell.first_meal().count(), 0u);
  EXPECT_EQ(cell.progressed(), 0u);
  EXPECT_EQ(cell.everyone_ate(), 0u);
  EXPECT_DOUBLE_EQ(cell.everyone_ate_ci().low, 0.0);
}

TEST(AggregateTest, SummarizeReducesRunResult) {
  sim::RunResult r;
  r.steps = 100;
  r.total_meals = 7;
  r.meals_of = {3, 4};
  r.first_meal_step = 12;
  r.first_meal_of = {12, 20};
  r.max_hunger_of = {30, 8};
  r.max_sched_gap = 5;
  const TrialOutcome one = summarize(r, 1);
  EXPECT_EQ(one.meals, 7u);
  EXPECT_EQ(one.first_meal, 12u);
  EXPECT_EQ(one.max_hunger, 30u);
  EXPECT_EQ(one.tracked_meals, 4u);
  EXPECT_EQ(one.tracked_hunger, 8u);
  EXPECT_TRUE(one.everyone_ate);
  EXPECT_FALSE(one.deadlocked);
  // Out-of-range tracked philosopher clamps to the last one.
  EXPECT_EQ(summarize(r, 9).tracked_meals, 4u);
}

TEST(AggregateTest, CsvEscapesCommaBearingLabels) {
  CampaignSpec spec;
  spec.trials = 1;
  spec.topologies = {graph::fig1a()};  // name "fig1a(6ph,3f)" contains a comma
  spec.algorithms = {"gdp1"};
  spec.schedulers = {longest_waiting()};
  spec.engine.max_steps = 500;
  const auto result = run_campaign(spec, 1);
  EXPECT_NE(result.csv().find("\"fig1a(6ph,3f)/gdp1/longest-waiting\""), std::string::npos);
  const auto lines = result.csv();
  EXPECT_EQ(static_cast<int>(std::count(lines.begin(), lines.end(), '\n')), 2);
}

TEST(AggregateTest, HungerQuantilesAreExactOrderStatistics) {
  CellAggregate agg(Cell{}, "synthetic");
  for (std::uint64_t h : {30u, 10u, 40u, 20u}) {
    TrialOutcome t;
    t.max_hunger = h;
    agg.fold(t);
  }
  // Nearest-rank on the sorted samples {10, 20, 30, 40}: never a bucket
  // artifact, never outside the observed range.
  EXPECT_DOUBLE_EQ(agg.hunger_quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(agg.hunger_quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(agg.hunger_quantile(0.75), 30.0);
  EXPECT_DOUBLE_EQ(agg.hunger_quantile(0.99), 40.0);
  EXPECT_DOUBLE_EQ(agg.hunger_quantile(1.0), 40.0);
  // The render histogram spans the observed range, not the step budget.
  const auto hist = agg.hunger_histogram(4);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.bucket_hi(3), 41.0);

  CellAggregate empty(Cell{}, "empty");
  EXPECT_DOUBLE_EQ(empty.hunger_quantile(0.5), 0.0);
}

TEST(AggregateTest, JsonEscapesControlCharactersInNames) {
  CampaignSpec spec;
  spec.name = "camp\naign\t\"x\"\x01";
  spec.trials = 1;
  spec.topologies = {graph::classic_ring(3)};
  spec.algorithms = {"gdp1"};
  spec.schedulers = {longest_waiting()};
  spec.engine.max_steps = 100;
  const auto json = run_campaign(spec, 1).json();
  EXPECT_NE(json.find("camp\\naign\\t\\\"x\\\"\\u0001"), std::string::npos);
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // only the trailing newline
}

TEST(AggregateTest, ResultAtChecksRange) {
  const auto result = run_campaign(tiny_spec(), 2);
  EXPECT_THROW(result.at(result.cells.size()), PreconditionError);
}

}  // namespace
}  // namespace gdp::exp
