// Declarative experiment campaigns.
//
// A CampaignSpec is the cross product
//
//   topologies x algorithms x schedulers x algorithm configs x trials
//
// plus one EngineConfig — everything the 13 hand-rolled bench mains used to
// reimplement (trial loop, seeding, aggregation) expressed as data. The
// Runner (runner.hpp) executes the grid in parallel with per-trial seeds
// from seeding.hpp, and the Aggregate layer (aggregate.hpp) folds the
// results deterministically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/topology.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/scheduler.hpp"

namespace gdp::exp {

/// A named scheduler factory. Schedulers are stateful, so every trial gets a
/// fresh instance; the factory receives the trial's algorithm because the
/// malicious adversaries evaluate the step relation ("complete information
/// of the past", §2).
struct SchedulerSpec {
  std::string name;
  std::function<std::unique_ptr<sim::Scheduler>(const algos::Algorithm& algo)> make;

  /// Optional post-run probe evaluated on the scheduler and the finished
  /// run; `true` outcomes are counted per cell (e.g. "did the trap hold?").
  std::function<bool(const sim::Scheduler& sched, const sim::RunResult& r)> probe;
};

/// Ready-made specs for the in-tree schedulers.
SchedulerSpec longest_waiting();
SchedulerSpec round_robin();
SchedulerSpec uniform();
SchedulerSpec eat_avoider();
/// The §5 lockout adversary against `victim` (hard_cap 0 = scheduler default).
SchedulerSpec starve_victim(PhilId victim, std::uint64_t hard_cap = 0);
/// The §3 trap; its probe counts runs where the trap held and nobody ate.
SchedulerSpec trap_fig1a();

struct CampaignSpec {
  std::string name = "campaign";
  std::uint64_t seed = 1;
  /// Independent trials per grid cell (>= 1).
  int trials = 1;

  /// Grid dimensions. Algorithms are registry names (algos::make_algorithm);
  /// an empty `configs` means one default AlgoConfig.
  std::vector<graph::Topology> topologies;
  std::vector<std::string> algorithms;
  std::vector<SchedulerSpec> schedulers;
  std::vector<algos::AlgoConfig> configs;

  sim::EngineConfig engine;

  /// Philosopher whose per-philosopher metrics are reported (victim
  /// analyses); clamped to each topology's last philosopher if out of range.
  PhilId tracked = 0;

  /// Skip (algorithm, topology) pairs the algorithm's validate() rejects
  /// (e.g. colored off an even ring) instead of failing the campaign. A
  /// config out of range on every topology (validate_config()) still fails
  /// the campaign.
  bool skip_invalid = false;
};

/// One grid point. `index` is the row-major position with topology as the
/// outermost dimension: ((topology * A + algorithm) * S + scheduler) * C
/// + config — so results group naturally by system, as the benches print.
struct Cell {
  std::size_t index = 0;
  std::size_t topology = 0;
  std::size_t algorithm = 0;
  std::size_t scheduler = 0;
  std::size_t config = 0;
};

/// Grid size of `spec` (0 if any dimension other than configs is empty).
std::size_t num_cells(const CampaignSpec& spec);

/// All cells of the grid in index order.
std::vector<Cell> cells(const CampaignSpec& spec);

/// Number of AlgoConfig variants (1 when spec.configs is empty).
std::size_t num_configs(const CampaignSpec& spec);

/// The AlgoConfig of a cell (default-constructed when configs is empty).
algos::AlgoConfig cell_config(const CampaignSpec& spec, const Cell& cell);

/// "ring(3)/gdp1/longest-waiting[m=4]" — stable human-readable label.
std::string cell_label(const CampaignSpec& spec, const Cell& cell);

/// Validates the spec (non-empty dimensions, trials >= 1, registry names
/// resolvable, every config in range on any topology). Throws
/// PreconditionError with context on violation.
void validate(const CampaignSpec& spec);

}  // namespace gdp::exp
