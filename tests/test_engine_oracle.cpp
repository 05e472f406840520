// Differential oracle for the simulator.
//
// sim::run steps the algorithm through the sink form into a reused branch
// buffer, swaps the sampled successor into the current state and probes for
// deadlock through the same buffer; EatAvoider and StarveVictim compute
// their lookahead flags in a sink over their own scratch. This suite keeps
// the straightforward versions as references: reference_run is the engine
// loop over the collecting Algorithm::step (a vector of branches, each with
// its own SimState, on every step), and RefEatAvoider / RefStarveVictim
// pick from the collected branches of every pending step. Over every
// algorithm, small topologies, every scheduler and several seeds and
// configs, the two must agree on every RunResult field and on the recorded
// trace, draw for draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"
#include "gdp/sim/schedulers/eat_avoider.hpp"
#include "gdp/sim/schedulers/starve_victim.hpp"
#include "gdp/sim/schedulers/trap_fig1a.hpp"

namespace gdp::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference engine: the collecting loop.

bool is_self_loop(const SimState& current, const std::vector<Branch>& branches) {
  for (const Branch& b : branches) {
    if (!(b.next == current)) return false;
  }
  return true;
}

bool all_self_loops(const algos::Algorithm& algo, const graph::Topology& t,
                    const SimState& state) {
  for (PhilId p = 0; p < t.num_phils(); ++p) {
    if (!is_self_loop(state, algo.step(t, state, p))) return false;
  }
  return true;
}

RunResult reference_run(const algos::Algorithm& algo, const graph::Topology& t,
                        Scheduler& sched, rng::RandomSource& rng, const EngineConfig& config) {
  const auto n = static_cast<std::size_t>(t.num_phils());

  RunResult result;
  result.meals_of.assign(n, 0);
  result.first_meal_of.assign(n, kNever);
  result.max_hunger_of.assign(n, 0);

  SimState state = algo.initial_state(t);
  sched.reset(t);

  std::vector<std::uint64_t> steps_of(n, 0);
  std::vector<std::uint64_t> last_scheduled(n, 0);
  std::vector<std::uint64_t> hungry_since(n, kNever);
  std::uint64_t consecutive_self_loops = 0;

  RunView view;
  view.steps_of = &steps_of;
  view.last_scheduled = &last_scheduled;

  for (std::uint64_t step = 0; step < config.max_steps; ++step) {
    view.step_index = step;
    view.total_meals = result.total_meals;

    const PhilId p = sched.pick(t, state, view, rng);
    GDP_CHECK_MSG(p >= 0 && p < t.num_phils(), sched.name() << " picked invalid philosopher " << p);

    const std::vector<Branch> branches = algo.step(t, state, p);
    const Branch& chosen = sample_branch(branches, rng);
    const bool unchanged = chosen.next == state;

    result.max_sched_gap = std::max(result.max_sched_gap, step - last_scheduled[p]);
    last_scheduled[p] = step;
    ++steps_of[p];

    switch (chosen.event.kind) {
      case EventKind::kStartTrying:
        hungry_since[p] = step;
        break;
      case EventKind::kTookSecond: {
        ++result.total_meals;
        ++result.meals_of[p];
        if (result.first_meal_step == kNever) result.first_meal_step = step;
        if (result.first_meal_of[p] == kNever) result.first_meal_of[p] = step;
        if (hungry_since[p] != kNever) {
          result.max_hunger_of[p] = std::max(result.max_hunger_of[p], step - hungry_since[p]);
          hungry_since[p] = kNever;
        }
        break;
      }
      case EventKind::kGranted:
        if (chosen.next.phil(p).phase == Phase::kEating) {
          ++result.total_meals;
          ++result.meals_of[p];
          if (result.first_meal_step == kNever) result.first_meal_step = step;
          if (result.first_meal_of[p] == kNever) result.first_meal_of[p] = step;
          if (hungry_since[p] != kNever) {
            result.max_hunger_of[p] = std::max(result.max_hunger_of[p], step - hungry_since[p]);
            hungry_since[p] = kNever;
          }
        }
        break;
      default:
        break;
    }

    if (config.record_trace) result.trace.push_back(TraceEntry{step, p, chosen.event});

    state = chosen.next;
    sched.observe(t, state, p, chosen.event);
    result.steps = step + 1;

    if (config.check_invariants) {
      result.invariant_violation = check_invariants(state, t);
      if (!result.invariant_violation.empty()) break;
    }

    consecutive_self_loops = unchanged ? consecutive_self_loops + 1 : 0;
    if (consecutive_self_loops >= static_cast<std::uint64_t>(t.num_phils()) &&
        all_self_loops(algo, t, state)) {
      result.deadlocked = true;
      break;
    }

    if (config.stop_after_meals != 0 && result.total_meals >= config.stop_after_meals) break;
    if (config.stop_when_all_ate &&
        std::all_of(result.meals_of.begin(), result.meals_of.end(),
                    [](std::uint64_t m) { return m > 0; })) {
      break;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (hungry_since[i] != kNever) {
      result.max_hunger_of[i] = std::max(result.max_hunger_of[i], result.steps - hungry_since[i]);
    }
  }
  result.final_state = std::move(state);
  return result;
}

// ---------------------------------------------------------------------------
// Reference lookahead adversaries: the collecting picks.

std::uint64_t gap_of(const RunView& view, PhilId p) {
  const auto idx = static_cast<std::size_t>(p);
  if ((*view.steps_of)[idx] == 0) return view.step_index + 1;  // never scheduled
  return view.step_index - (*view.last_scheduled)[idx];
}

class RefEatAvoider final : public Scheduler {
 public:
  RefEatAvoider(const algos::Algorithm& algo, EatAvoider::Config config)
      : algo_(algo), config_(config) {}

  std::string name() const override { return "ref-eat-avoider"; }

  void reset(const graph::Topology& t) override {
    const auto n = static_cast<std::uint64_t>(t.num_phils());
    soft_window_ = config_.soft_window != 0 ? config_.soft_window : 16 * n;
    hard_cap_ = config_.hard_cap != 0 ? config_.hard_cap : 64 * n;
    forced_unsafe_ = 0;
  }

  PhilId pick(const graph::Topology& t, const SimState& state, const RunView& view,
              rng::RandomSource& /*rng*/) override {
    const int n = t.num_phils();
    std::vector<std::vector<Branch>> steps;
    for (PhilId p = 0; p < n; ++p) steps.push_back(algo_.step(t, state, p));

    for (PhilId p = 0; p < n; ++p) {
      if (gap_of(view, p) >= hard_cap_) {
        if (step_may_eat(steps[static_cast<std::size_t>(p)])) ++forced_unsafe_;
        return p;
      }
    }

    std::uint64_t wanted_forks = 0;
    for (PhilId p = 0; p < n; ++p) {
      const PhilState& ps = state.phil(p);
      if (ps.phase == Phase::kTrySecond || ps.phase == Phase::kRenumber) {
        const ForkId second = t.other_fork(p, t.fork_of(p, ps.committed));
        if (state.fork(second).free() && second < 64) {
          wanted_forks |= (std::uint64_t{1} << second);
        }
      }
    }

    PhilId best = kNoPhil;
    int best_score = -1;
    std::uint64_t best_gap = 0;
    for (PhilId p = 0; p < n; ++p) {
      const auto& branches = steps[static_cast<std::size_t>(p)];
      if (step_may_eat(branches)) continue;
      int score = 1;
      const PhilState& ps = state.phil(p);
      if (ps.phase == Phase::kCommit) {
        const ForkId f = t.fork_of(p, ps.committed);
        if (state.fork(f).free() && f < 64 && ((wanted_forks >> f) & 1u)) score = 3;
      }
      if (score == 1 && is_self_loop(state, branches) && gap_of(view, p) >= soft_window_) {
        score = 2;
      }
      const std::uint64_t gap = gap_of(view, p);
      if (score > best_score || (score == best_score && gap > best_gap)) {
        best = p;
        best_score = score;
        best_gap = gap;
      }
    }
    if (best != kNoPhil) return best;

    PhilId victim = 0;
    std::uint64_t max_gap = 0;
    for (PhilId p = 0; p < n; ++p) {
      if (gap_of(view, p) >= max_gap) {
        max_gap = gap_of(view, p);
        victim = p;
      }
    }
    ++forced_unsafe_;
    return victim;
  }

  std::uint64_t forced_unsafe_picks() const { return forced_unsafe_; }

 private:
  static bool step_may_eat(const std::vector<Branch>& branches) {
    return std::any_of(branches.begin(), branches.end(), [](const Branch& b) {
      return b.event.kind == EventKind::kTookSecond ||
             (b.event.kind == EventKind::kGranted &&
              std::any_of(b.next.phils.begin(), b.next.phils.end(),
                          [](const PhilState& ps) { return ps.phase == Phase::kEating; }));
    });
  }

  const algos::Algorithm& algo_;
  EatAvoider::Config config_;
  std::uint64_t soft_window_ = 0;
  std::uint64_t hard_cap_ = 0;
  std::uint64_t forced_unsafe_ = 0;
};

class RefStarveVictim final : public Scheduler {
 public:
  RefStarveVictim(const algos::Algorithm& algo, StarveVictim::Config config)
      : algo_(algo), config_(config) {}

  std::string name() const override { return "ref-starve-victim"; }

  void reset(const graph::Topology& t) override {
    hard_cap_ = config_.hard_cap != 0 ? config_.hard_cap
                                      : 256 * static_cast<std::uint64_t>(t.num_phils());
  }

  PhilId pick(const graph::Topology& t, const SimState& state, const RunView& view,
              rng::RandomSource& /*rng*/) override {
    const PhilId victim = config_.victim;
    const std::uint64_t victim_gap = gap_of(view, victim);
    const auto branches = algo_.step(t, state, victim);
    const bool victim_may_eat = [&] {
      for (const Branch& b : branches) {
        if (b.event.kind == EventKind::kTookSecond) return true;
        if (b.event.kind == EventKind::kGranted && b.next.phil(victim).phase == Phase::kEating) {
          return true;
        }
      }
      return false;
    }();

    if (victim_gap >= hard_cap_) return victim;
    if (!victim_may_eat && victim_gap >= static_cast<std::uint64_t>(2 * t.num_phils())) {
      return victim;
    }
    PhilId best = kNoPhil;
    std::uint64_t best_key = 0;
    for (PhilId p = 0; p < t.num_phils(); ++p) {
      if (p == victim) continue;
      const std::uint64_t key = gap_of(view, p);
      if (best == kNoPhil || key > best_key) {
        best = p;
        best_key = key;
      }
    }
    return best == kNoPhil ? victim : best;
  }

 private:
  const algos::Algorithm& algo_;
  StarveVictim::Config config_;
  std::uint64_t hard_cap_ = 0;
};

// ---------------------------------------------------------------------------
// The matrix.

void expect_same_run(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.total_meals, want.total_meals);
  EXPECT_EQ(got.meals_of, want.meals_of);
  EXPECT_EQ(got.first_meal_step, want.first_meal_step);
  EXPECT_EQ(got.first_meal_of, want.first_meal_of);
  EXPECT_EQ(got.max_hunger_of, want.max_hunger_of);
  EXPECT_EQ(got.max_sched_gap, want.max_sched_gap);
  EXPECT_EQ(got.deadlocked, want.deadlocked);
  EXPECT_EQ(got.invariant_violation, want.invariant_violation);
  EXPECT_TRUE(got.final_state == want.final_state);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    const TraceEntry& g = got.trace[i];
    const TraceEntry& w = want.trace[i];
    ASSERT_TRUE(g.step == w.step && g.phil == w.phil && g.event.kind == w.event.kind &&
                g.event.side == w.event.side && g.event.fork == w.event.fork &&
                g.event.value == w.event.value)
        << "trace entry " << i << ": " << g.phil << " " << g.event.to_string() << " vs "
        << w.phil << " " << w.event.to_string();
  }
}

struct SchedulerPair {
  std::string name;
  std::function<std::unique_ptr<Scheduler>(const algos::Algorithm&)> make;
  std::function<std::unique_ptr<Scheduler>(const algos::Algorithm&)> make_reference;
};

template <class S>
SchedulerPair fair(const std::string& name) {
  auto make = [](const algos::Algorithm&) -> std::unique_ptr<Scheduler> {
    return std::make_unique<S>();
  };
  return {name, make, make};
}

std::vector<SchedulerPair> scheduler_pairs() {
  std::vector<SchedulerPair> out = {fair<RandomUniform>("uniform"),
                                    fair<RoundRobin>("round-robin"),
                                    fair<LongestWaiting>("longest-waiting")};
  // The default windows, and tight ones that reach the hard cap and the
  // soft-window self-loop preference within a short run.
  for (const EatAvoider::Config c : {EatAvoider::Config{}, EatAvoider::Config{3, 9}}) {
    out.push_back({c.hard_cap == 0 ? "eat-avoider" : "eat-avoider/tight",
                   [c](const algos::Algorithm& a) -> std::unique_ptr<Scheduler> {
                     return std::make_unique<EatAvoider>(a, c);
                   },
                   [c](const algos::Algorithm& a) -> std::unique_ptr<Scheduler> {
                     return std::make_unique<RefEatAvoider>(a, c);
                   }});
  }
  for (const StarveVictim::Config c : {StarveVictim::Config{}, StarveVictim::Config{1, 12}}) {
    out.push_back({c.hard_cap == 0 ? "starve-victim" : "starve-victim/tight",
                   [c](const algos::Algorithm& a) -> std::unique_ptr<Scheduler> {
                     return std::make_unique<StarveVictim>(a, c);
                   },
                   [c](const algos::Algorithm& a) -> std::unique_ptr<Scheduler> {
                     return std::make_unique<RefStarveVictim>(a, c);
                   }});
  }
  return out;
}

/// Emits each self-loop of `inner` as a copy of the state built in the
/// scratch rather than as the state itself. The step contract allows both,
/// and the algorithms always emit the state itself, so only this wrapper
/// reaches the value compares by which sim::run, its deadlock probe and
/// EatAvoider also recognise a self-loop built in the scratch.
class SelfLoopsInScratch final : public algos::Algorithm {
 public:
  explicit SelfLoopsInScratch(std::unique_ptr<algos::Algorithm> inner)
      : Algorithm(inner->config()), inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool uses_books() const override { return inner_->uses_books(); }
  bool uses_numbers() const override { return inner_->uses_numbers(); }
  void validate(const graph::Topology& t) const override { inner_->validate(t); }

  void step(const graph::Topology& t, const SimState& state, PhilId p, SimState& scratch,
            algos::BranchSink& sink) const override {
    algos::SinkFn copy([&](double prob, const StepEvent& event, const SimState& next) {
      if (&next == &state) {
        scratch = state;
        sink(prob, event, scratch);
      } else {
        sink(prob, event, next);
      }
    });
    inner_->step(t, state, p, scratch, copy);
  }

 protected:
  void init_aux(SimState& state, const graph::Topology& t) const override {
    state.aux = inner_->initial_state(t).aux;
  }

 private:
  std::unique_ptr<algos::Algorithm> inner_;
};

struct Variant {
  algos::AlgoConfig algo;
  EngineConfig engine;
};

// Seeds 1-3 over three configs: hungry thinking with a trace; coin thinking
// (a two-way draw whose still-thinking branch is the state itself) with
// invariant checks; and a run that stops on its 40th meal.
std::vector<Variant> variants() {
  Variant plain;
  plain.engine.max_steps = 2'000;
  plain.engine.record_trace = true;
  Variant coin = plain;
  coin.algo.think = algos::ThinkMode::kCoin;
  coin.algo.think_coin = 0.3;
  coin.engine.check_invariants = true;
  Variant meals = plain;
  meals.engine.stop_after_meals = 40;
  return {plain, coin, meals};
}

std::vector<graph::Topology> topologies_for(const std::string& algo_name) {
  if (algo_name == "colored") return {graph::classic_ring(4)};
  return {graph::classic_ring(3), graph::parallel_arcs(3), graph::fig1a()};
}

struct Coverage {
  std::size_t runs = 0;
  std::size_t deadlocked = 0;
  std::size_t forced_unsafe = 0;
  std::size_t granted_meals = 0;
};

void compare(const std::string& algo_name, const graph::Topology& t, const SchedulerPair& pair,
             Coverage& coverage, bool self_loops_in_scratch = false) {
  const std::vector<Variant> vs = variants();
  for (std::size_t v = 0; v < vs.size(); ++v) {
    std::unique_ptr<algos::Algorithm> algo = algos::make_algorithm(algo_name, vs[v].algo);
    if (self_loops_in_scratch) algo = std::make_unique<SelfLoopsInScratch>(std::move(algo));
    try {
      algo->validate(t);
    } catch (const PreconditionError&) {
      continue;
    }
    const std::uint64_t seed = v + 1;
    SCOPED_TRACE(algo_name + " on " + t.name() + " under " + pair.name + ", seed " +
                 std::to_string(seed));
    const auto sched = pair.make(*algo);
    const auto ref_sched = pair.make_reference(*algo);
    rng::Rng rng(seed);
    rng::Rng ref_rng(seed);
    const RunResult got = run(*algo, t, *sched, rng, vs[v].engine);
    const RunResult want = reference_run(*algo, t, *ref_sched, ref_rng, vs[v].engine);
    expect_same_run(got, want);
    EXPECT_EQ(rng.draw_count(), ref_rng.draw_count());
    if (const auto* ea = dynamic_cast<const EatAvoider*>(sched.get())) {
      const auto& ref = dynamic_cast<const RefEatAvoider&>(*ref_sched);
      EXPECT_EQ(ea->forced_unsafe_picks(), ref.forced_unsafe_picks());
      coverage.forced_unsafe += ea->forced_unsafe_picks() > 0 ? 1 : 0;
    }
    ++coverage.runs;
    coverage.deadlocked += want.deadlocked ? 1 : 0;
    if (algo_name == "arbiter") coverage.granted_meals += want.total_meals > 0 ? 1 : 0;
  }
}

TEST(EngineOracle, RunMatchesTheCollectingLoopOnEveryAlgorithmAndScheduler) {
  Coverage coverage;
  for (const std::string& name : algos::algorithm_names()) {
    for (const graph::Topology& t : topologies_for(name)) {
      for (const SchedulerPair& pair : scheduler_pairs()) compare(name, t, pair, coverage);
    }
  }
  // The matrix must reach the paths the sink form changes: the deadlock
  // probe, the hard-cap concession and the arbiter's granted meals.
  EXPECT_GT(coverage.runs, 300u);
  EXPECT_GT(coverage.deadlocked, 0u);
  EXPECT_GT(coverage.forced_unsafe, 0u);
  EXPECT_GT(coverage.granted_meals, 0u);
}

TEST(EngineOracle, SelfLoopsBuiltInTheScratchMatchTheCollectingLoop) {
  Coverage coverage;
  for (const std::string& name : algos::algorithm_names()) {
    for (const graph::Topology& t : topologies_for(name)) {
      for (const SchedulerPair& pair : scheduler_pairs()) compare(name, t, pair, coverage, true);
    }
  }
  EXPECT_GT(coverage.runs, 300u);
  EXPECT_GT(coverage.deadlocked, 0u);
}

TEST(EngineOracle, TrapFig1aMatchesTheCollectingLoop) {
  Coverage coverage;
  const SchedulerPair trap = fair<TrapFig1a>("trap-fig1a");
  for (const std::string& name : algos::algorithm_names()) {
    compare(name, graph::fig1a(), trap, coverage);
  }
  EXPECT_GT(coverage.runs, 0u);
}

}  // namespace
}  // namespace gdp::sim
