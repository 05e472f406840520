#include "gdp/exp/runner.hpp"

#include <utility>

#include "gdp/common/check.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/exp/seeding.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"
#include "gdp/rng/rng.hpp"

namespace gdp::exp {

namespace {

/// Immutable per-cell execution context resolved before the pool starts.
struct CellPlan {
  Cell cell;
  const graph::Topology* topology = nullptr;
  std::string algorithm;
  algos::AlgoConfig config;
  const SchedulerSpec* scheduler = nullptr;
  bool skipped = false;
};

TrialOutcome execute_trial(const CampaignSpec& spec, const CellPlan& plan, int trial) {
  if (plan.skipped) {
    TrialOutcome out;
    out.skipped = true;
    return out;
  }
  const auto algo = algos::make_algorithm(plan.algorithm, plan.config);
  const auto sched = plan.scheduler->make(*algo);
  rng::Rng rng(trial_seed(spec.seed, plan.cell.index, static_cast<std::uint64_t>(trial)));
  const sim::RunResult r = sim::run(*algo, *plan.topology, *sched, rng, spec.engine);
  TrialOutcome out = summarize(r, spec.tracked);
  if (plan.scheduler->probe) out.probe = plan.scheduler->probe(*sched, r);
  return out;
}

}  // namespace

Runner::Runner(RunnerOptions options) : options_(options) {
  GDP_CHECK_MSG(options.threads >= 0, "RunnerOptions.threads must be >= 0");
}

CampaignResult Runner::run(const CampaignSpec& spec) const {
  validate(spec);
  obs::Span span("exp.campaign");

  const std::vector<Cell> grid = cells(spec);
  const auto trials = static_cast<std::size_t>(spec.trials);
  const std::size_t total = grid.size() * trials;
  GDP_CHECK_MSG(total < (std::uint64_t{1} << 32),
                "campaign '" << spec.name << "' has " << total << " tasks (max 2^32 - 1)");

  // Resolve every cell up front: one validate() per (algorithm, topology,
  // config) instead of one per trial, and misconfigurations surface before
  // any thread is spawned.
  std::vector<CellPlan> plans;
  plans.reserve(grid.size());
  for (const Cell& cell : grid) {
    CellPlan plan;
    plan.cell = cell;
    plan.topology = &spec.topologies[cell.topology];
    plan.algorithm = spec.algorithms[cell.algorithm];
    plan.config = cell_config(spec, cell);
    plan.scheduler = &spec.schedulers[cell.scheduler];
    try {
      algos::make_algorithm(plan.algorithm, plan.config)->validate(*plan.topology);
    } catch (const PreconditionError&) {
      if (!spec.skip_invalid) throw;
      plan.skipped = true;
    }
    plans.push_back(std::move(plan));
  }

  // The shared work-stealing pool (gdp/common/pool.hpp) executes the flat
  // cells x trials task range; every outcome parks at its global index —
  // the lock-free half of the runner's concurrency contract (see
  // runner.hpp): distinct ids, distinct slots, no capability needed.
  std::vector<TrialOutcome> outcomes(total);
  common::parallel_for(total, options_.threads, [&](std::uint32_t id) {
    const std::size_t c = id / trials;
    const int trial = static_cast<int>(id % trials);
    // One span per trial: a slice on the executing worker's timeline track
    // (a cell shows up as a run of equal-length slices) and the exp.trial
    // aggregate in the run report. The name is a literal (the ring stores
    // pointers) and the cell id rides along as a counter lane.
    obs::Span trial_span("exp.trial");
    obs::timeline::counter_sample("exp.cell", static_cast<double>(c));
    outcomes[id] = execute_trial(spec, plans[c], trial);
  });

  // Deterministic plane: the grid shape is a pure function of the spec.
  static obs::Counter& campaigns_ctr = obs::Registry::global().counter("exp.campaigns");
  static obs::Counter& cells_ctr = obs::Registry::global().counter("exp.cells");
  static obs::Counter& trials_ctr = obs::Registry::global().counter("exp.trials");
  campaigns_ctr.increment();
  cells_ctr.add(grid.size());
  trials_ctr.add(total);

  // Single-threaded fold in global trial order: the determinism barrier.
  CampaignResult result;
  result.name = spec.name;
  result.seed = spec.seed;
  result.trials_per_cell = spec.trials;
  result.cells.reserve(grid.size());
  for (const Cell& cell : grid) {
    CellAggregate agg(cell, cell_label(spec, cell));
    for (std::size_t i = 0; i < trials; ++i) {
      agg.fold(outcomes[cell.index * trials + i]);
    }
    result.cells.push_back(std::move(agg));
  }
  return result;
}

CampaignResult run_campaign(const CampaignSpec& spec, int threads) {
  return Runner(RunnerOptions{threads}).run(spec);
}

}  // namespace gdp::exp
