#include "gdp/exp/campaign.hpp"

#include "gdp/common/check.hpp"
#include "gdp/common/strings.hpp"
#include "gdp/sim/schedulers/basic.hpp"
#include "gdp/sim/schedulers/eat_avoider.hpp"
#include "gdp/sim/schedulers/starve_victim.hpp"
#include "gdp/sim/schedulers/trap_fig1a.hpp"

namespace gdp::exp {

SchedulerSpec longest_waiting() {
  return {"longest-waiting",
          [](const algos::Algorithm&) { return std::make_unique<sim::LongestWaiting>(); },
          nullptr};
}

SchedulerSpec round_robin() {
  return {"round-robin",
          [](const algos::Algorithm&) { return std::make_unique<sim::RoundRobin>(); }, nullptr};
}

SchedulerSpec uniform() {
  return {"uniform",
          [](const algos::Algorithm&) { return std::make_unique<sim::RandomUniform>(); }, nullptr};
}

SchedulerSpec eat_avoider() {
  return {"eat-avoider",
          [](const algos::Algorithm& algo) { return std::make_unique<sim::EatAvoider>(algo); },
          nullptr};
}

SchedulerSpec starve_victim(PhilId victim, std::uint64_t hard_cap) {
  return {"starve-victim",
          [victim, hard_cap](const algos::Algorithm& algo) {
            return std::make_unique<sim::StarveVictim>(
                algo, sim::StarveVictim::Config{.victim = victim, .hard_cap = hard_cap});
          },
          nullptr};
}

SchedulerSpec trap_fig1a() {
  SchedulerSpec spec;
  spec.name = "trap-fig1a";
  spec.make = [](const algos::Algorithm&) { return std::make_unique<sim::TrapFig1a>(); };
  spec.probe = [](const sim::Scheduler& sched, const sim::RunResult& r) {
    return static_cast<const sim::TrapFig1a&>(sched).trapped() && r.total_meals == 0;
  };
  return spec;
}

std::size_t num_configs(const CampaignSpec& spec) {
  return spec.configs.empty() ? 1 : spec.configs.size();
}

std::size_t num_cells(const CampaignSpec& spec) {
  return spec.topologies.size() * spec.algorithms.size() * spec.schedulers.size() *
         num_configs(spec);
}

std::vector<Cell> cells(const CampaignSpec& spec) {
  std::vector<Cell> out;
  out.reserve(num_cells(spec));
  std::size_t index = 0;
  for (std::size_t t = 0; t < spec.topologies.size(); ++t) {
    for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
      for (std::size_t s = 0; s < spec.schedulers.size(); ++s) {
        for (std::size_t c = 0; c < num_configs(spec); ++c) {
          out.push_back(Cell{index++, t, a, s, c});
        }
      }
    }
  }
  return out;
}

algos::AlgoConfig cell_config(const CampaignSpec& spec, const Cell& cell) {
  return spec.configs.empty() ? algos::AlgoConfig{} : spec.configs[cell.config];
}

std::string cell_label(const CampaignSpec& spec, const Cell& cell) {
  std::string label = spec.topologies[cell.topology].name() + "/" +
                      spec.algorithms[cell.algorithm] + "/" +
                      spec.schedulers[cell.scheduler].name;
  if (num_configs(spec) > 1) {
    label += "[m=" + std::to_string(cell_config(spec, cell).m) + "]";
  }
  return label;
}

void validate(const CampaignSpec& spec) {
  GDP_CHECK_MSG(spec.trials >= 1, "campaign '" << spec.name << "' needs trials >= 1");
  GDP_CHECK_MSG(!spec.topologies.empty(), "campaign '" << spec.name << "' has no topologies");
  GDP_CHECK_MSG(!spec.algorithms.empty(), "campaign '" << spec.name << "' has no algorithms");
  GDP_CHECK_MSG(!spec.schedulers.empty(), "campaign '" << spec.name << "' has no schedulers");
  for (const SchedulerSpec& s : spec.schedulers) {
    GDP_CHECK_MSG(s.make != nullptr, "scheduler spec '" << s.name << "' has no factory");
  }
  // Resolve and range-check every (algorithm, config) pair once, so a typo
  // or an out-of-range config fails the campaign up front instead of inside
  // a worker thread. skip_invalid only skips topologies an algorithm cannot
  // run on; a config that is invalid everywhere is an error.
  for (const std::string& name : spec.algorithms) {
    for (std::size_t c = 0; c < num_configs(spec); ++c) {
      algos::make_algorithm(name, spec.configs.empty() ? algos::AlgoConfig{} : spec.configs[c])
          ->validate_config();
    }
  }
}

}  // namespace gdp::exp
