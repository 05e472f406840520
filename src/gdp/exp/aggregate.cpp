#include "gdp/exp/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "gdp/common/check.hpp"
#include "gdp/common/strings.hpp"
#include "gdp/stats/csv.hpp"
#include "gdp/stats/jain.hpp"

namespace gdp::exp {

TrialOutcome summarize(const sim::RunResult& r, PhilId tracked) {
  TrialOutcome out;
  out.steps = r.steps;
  out.meals = r.total_meals;
  out.first_meal = r.first_meal_step;
  out.max_hunger = r.max_hunger();
  out.max_sched_gap = r.max_sched_gap;
  if (!r.meals_of.empty()) {
    const auto p = static_cast<std::size_t>(tracked) < r.meals_of.size()
                       ? static_cast<std::size_t>(tracked)
                       : r.meals_of.size() - 1;
    out.tracked_meals = r.meals_of[p];
    out.tracked_hunger = r.max_hunger_of[p];
  }
  out.jain = stats::jain_index(r.meals_of);
  out.everyone_ate = r.everyone_ate();
  out.deadlocked = r.deadlocked;
  return out;
}

CellAggregate::CellAggregate(Cell cell, std::string label)
    : cell_(cell), label_(std::move(label)) {}

void CellAggregate::fold(const TrialOutcome& t) {
  if (t.skipped) {
    skipped_ = true;
    return;
  }
  ++trials_;
  deadlocks_ += t.deadlocked;
  everyone_ate_ += t.everyone_ate;
  progressed_ += t.meals > 0;
  probe_hits_ += t.probe;
  steps_.add(static_cast<double>(t.steps));
  meals_.add(static_cast<double>(t.meals));
  if (t.first_meal == sim::kNever) {
    ++no_meal_trials_;
  } else {
    first_meal_.add(static_cast<double>(t.first_meal));
  }
  max_hunger_.add(static_cast<double>(t.max_hunger));
  hunger_samples_.push_back(t.max_hunger);
  hunger_sorted_ = false;
  sched_gap_.add(static_cast<double>(t.max_sched_gap));
  tracked_meals_.add(static_cast<double>(t.tracked_meals));
  tracked_hunger_.add(static_cast<double>(t.tracked_hunger));
  jain_.add(t.jain);
}

double CellAggregate::hunger_quantile(double q) const {
  if (hunger_samples_.empty()) return 0.0;
  if (!hunger_sorted_) {
    std::sort(hunger_samples_.begin(), hunger_samples_.end());
    hunger_sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest sample with cumulative share >= q.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(hunger_samples_.size())));
  return static_cast<double>(hunger_samples_[rank == 0 ? 0 : rank - 1]);
}

stats::Histogram CellAggregate::hunger_histogram(int buckets) const {
  std::uint64_t hi = 0;
  for (std::uint64_t s : hunger_samples_) hi = std::max(hi, s);
  stats::Histogram hist(0.0, static_cast<double>(hi) + 1.0, buckets);
  for (std::uint64_t s : hunger_samples_) hist.add(static_cast<double>(s));
  return hist;
}

stats::Interval CellAggregate::everyone_ate_ci(double z) const {
  return stats::wilson(everyone_ate_, trials_, z);
}
stats::Interval CellAggregate::probe_ci(double z) const {
  return stats::wilson(probe_hits_, trials_, z);
}
stats::Interval CellAggregate::deadlock_ci(double z) const {
  return stats::wilson(deadlocks_, trials_, z);
}

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GDP_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << text;
  GDP_CHECK_MSG(out.good(), "short write to '" << path << "'");
}

}  // namespace

std::string CampaignResult::csv() const {
  std::string out =
      "campaign,cell,label,trials,skipped,steps_mean,meals_mean,meals_sem,"
      "first_meal_mean,no_meal_trials,max_hunger_mean,hunger_p50,hunger_p99,"
      "sched_gap_mean,tracked_meals_mean,tracked_hunger_mean,jain_mean,"
      "everyone_ate,everyone_ate_lo,everyone_ate_hi,deadlocks,probe_hits,"
      "probe_lo,probe_hi\n";
  for (const CellAggregate& c : cells) {
    const auto ate = c.everyone_ate_ci();
    const auto probe = c.probe_ci();
    const std::vector<std::string> row = {
        stats::csv_escape(name),
        u64(c.cell().index),
        stats::csv_escape(c.label()),
        u64(c.trials()),
        c.skipped() ? "1" : "0",
        format_double(c.steps().mean(), 3),
        format_double(c.meals().mean(), 3),
        format_double(c.meals().sem(), 3),
        format_double(c.first_meal().mean(), 3),
        u64(c.no_meal_trials()),
        format_double(c.max_hunger().mean(), 3),
        format_double(c.hunger_quantile(0.5), 3),
        format_double(c.hunger_quantile(0.99), 3),
        format_double(c.sched_gap().mean(), 3),
        format_double(c.tracked_meals().mean(), 3),
        format_double(c.tracked_hunger().mean(), 3),
        format_double(c.jain().mean(), 4),
        u64(c.everyone_ate()),
        format_double(ate.low, 4),
        format_double(ate.high, 4),
        u64(c.deadlocks()),
        u64(c.probe_hits()),
        format_double(probe.low, 4),
        format_double(probe.high, 4),
    };
    out += join(row, ",");
    out += '\n';
  }
  return out;
}

std::string CampaignResult::json() const {
  auto moments = [](const stats::OnlineStats& s) {
    return "{\"count\":" + u64(s.count()) + ",\"mean\":" + format_double(s.mean(), 6) +
           ",\"sem\":" + format_double(s.sem(), 6) + ",\"min\":" + format_double(s.min(), 3) +
           ",\"max\":" + format_double(s.max(), 3) + "}";
  };
  std::string out = "{\"campaign\":";
  append_json_string(out, name);
  out += ",\"seed\":" + u64(seed) + ",\"trials_per_cell\":" + std::to_string(trials_per_cell) +
         ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellAggregate& c = cells[i];
    if (i != 0) out += ',';
    out += "{\"index\":" + u64(c.cell().index) + ",\"label\":";
    append_json_string(out, c.label());
    if (c.skipped()) {
      out += ",\"skipped\":true}";
      continue;
    }
    const auto ate = c.everyone_ate_ci();
    out += ",\"trials\":" + u64(c.trials());
    out += ",\"steps\":" + moments(c.steps());
    out += ",\"meals\":" + moments(c.meals());
    out += ",\"first_meal\":" + moments(c.first_meal());
    out += ",\"no_meal_trials\":" + u64(c.no_meal_trials());
    out += ",\"max_hunger\":" + moments(c.max_hunger());
    out += ",\"hunger_quantiles\":{\"p50\":" + format_double(c.hunger_quantile(0.5), 3) +
           ",\"p90\":" + format_double(c.hunger_quantile(0.9), 3) +
           ",\"p99\":" + format_double(c.hunger_quantile(0.99), 3) + "}";
    out += ",\"sched_gap\":" + moments(c.sched_gap());
    out += ",\"tracked_meals\":" + moments(c.tracked_meals());
    out += ",\"tracked_hunger\":" + moments(c.tracked_hunger());
    out += ",\"jain\":" + moments(c.jain());
    out += ",\"everyone_ate\":{\"count\":" + u64(c.everyone_ate()) +
           ",\"ci\":[" + format_double(ate.low, 4) + "," + format_double(ate.high, 4) + "]}";
    out += ",\"progressed\":" + u64(c.progressed());
    out += ",\"deadlocks\":" + u64(c.deadlocks());
    out += ",\"probe_hits\":" + u64(c.probe_hits());
    out += "}";
  }
  out += "]}\n";
  return out;
}

void CampaignResult::write_csv(const std::string& path) const { write_text(path, csv()); }
void CampaignResult::write_json(const std::string& path) const { write_text(path, json()); }

const CellAggregate& CampaignResult::at(std::size_t cell_index) const {
  GDP_CHECK_MSG(cell_index < cells.size(),
                "cell " << cell_index << " out of range (" << cells.size() << " cells)");
  return cells[cell_index];
}

}  // namespace gdp::exp
