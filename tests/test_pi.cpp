// Guarded-choice layer: rendezvous counting, pairing consistency, liveness.
#include <gtest/gtest.h>

#include <numeric>

#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/pi/guarded_choice.hpp"

namespace gdp::pi {
namespace {

ChoiceResult run_on(const graph::Topology& t, std::uint64_t syncs, std::uint64_t seed = 1) {
  ChoiceConfig cfg;
  cfg.seed = seed;
  cfg.target_syncs = syncs;
  cfg.max_duration = std::chrono::milliseconds(20'000);
  return run_guarded_choice(t, cfg);
}

TEST(GuardedChoice, ReachesTargetOnRing) {
  const auto r = run_on(graph::classic_ring(4), 2'000);
  EXPECT_GE(r.total_syncs, 2'000u);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_GT(r.syncs_per_second, 0.0);
}

TEST(GuardedChoice, ChannelTotalsMatchRendezvousCount) {
  const auto r = run_on(graph::fig1a(), 3'000);
  const std::uint64_t on_channels =
      std::accumulate(r.syncs_on.begin(), r.syncs_on.end(), std::uint64_t{0});
  // Every rendezvous the matcher counted is attributed to exactly one
  // channel; late claims may add a few participations beyond the target.
  EXPECT_EQ(on_channels, r.total_syncs);
  EXPECT_EQ(r.violations, 0u);
}

TEST(GuardedChoice, ParticipationsAreTwoPerRendezvous) {
  const auto r = run_on(graph::classic_ring(6), 2'000, 7);
  const std::uint64_t participations =
      std::accumulate(r.syncs_of.begin(), r.syncs_of.end(), std::uint64_t{0});
  // matcher + offer owner each count one participation.
  EXPECT_GE(participations, r.total_syncs);
  EXPECT_LE(participations, 2 * r.total_syncs + static_cast<std::uint64_t>(r.syncs_of.size()));
}

TEST(GuardedChoice, SharedChannelTopologiesWork) {
  // The generalized case: channels shared by many agents.
  for (const auto& t : {graph::parallel_arcs(4), graph::star(6), graph::fig1a()}) {
    const auto r = run_on(t, 1'500, 11);
    EXPECT_GE(r.total_syncs, 1'500u) << t.name();
    EXPECT_EQ(r.violations, 0u) << t.name();
  }
}

TEST(GuardedChoice, NobodyStarvesOnModerateRuns) {
  // The run ends once 4,000 rendezvous are done AND every agent took part
  // in one, so an agent whose thread starts late is waited for; only the
  // 20 s cap ends it otherwise, and a capped run fails.
  const auto r = run_on(graph::classic_ring(4), 4'000, 3);
  EXPECT_FALSE(r.timed_out);
  EXPECT_GE(r.total_syncs, 4'000u);
  EXPECT_TRUE(r.everyone_synced());
}

TEST(GuardedChoice, RejectsZeroTarget) {
  ChoiceConfig cfg;
  cfg.target_syncs = 0;
  EXPECT_THROW(run_guarded_choice(graph::classic_ring(4), cfg), PreconditionError);
}

TEST(GuardedChoice, DeterministicConfigValidation) {
  ChoiceConfig cfg;
  cfg.target_syncs = 10;
  cfg.m = 1;  // < number of channels
  EXPECT_THROW(run_guarded_choice(graph::classic_ring(4), cfg), PreconditionError);
}

}  // namespace
}  // namespace gdp::pi
