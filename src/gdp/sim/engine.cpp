#include "gdp/sim/engine.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "gdp/common/check.hpp"

namespace gdp::sim {

std::uint64_t RunResult::max_hunger() const {
  return max_hunger_of.empty() ? 0
                               : *std::max_element(max_hunger_of.begin(), max_hunger_of.end());
}

bool RunResult::everyone_ate() const {
  return std::all_of(meals_of.begin(), meals_of.end(), [](std::uint64_t m) { return m > 0; });
}

const Branch& sample_branch(std::span<const Branch> branches, rng::RandomSource& rng) {
  GDP_DCHECK(!branches.empty());
  if (branches.size() == 1) return branches.front();

  // Recognize the two semantic draw shapes so scripted replays can force
  // them: a 2-way side draw (kChose) and an m-way renumbering (kRenumbered).
  if (branches.size() == 2 && branches[0].event.kind == EventKind::kChose &&
      branches[1].event.kind == EventKind::kChose) {
    const double p_left =
        branches[0].event.side == Side::kLeft ? branches[0].prob : branches[1].prob;
    const Side drawn = rng.choose_side(p_left);
    return branches[0].event.side == drawn ? branches[0] : branches[1];
  }
  if (branches.front().event.kind == EventKind::kRenumbered) {
    // Values are 1..m in order; draw uniformly by value.
    const int lo = branches.front().event.value;
    const int hi = branches.back().event.value;
    const int v = rng.uniform_int(lo, hi);
    return branches[static_cast<std::size_t>(v - lo)];
  }

  // Generic categorical fallback (think coins, future algorithms).
  double u = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
  for (const Branch& b : branches) {
    if (u < b.prob) return b;
    u -= b.prob;
  }
  return branches.back();
}

namespace {

/// The branches of one step, collected into slots that keep their SimState
/// storage from step to step. A successor built in the scratch is swapped
/// into its slot, which hands the scratch the slot's old storage (the step
/// contract lets a sink move from the scratch); a branch whose `next` is the
/// stepped state itself is flagged instead of copied. Once every slot has
/// held a successor, filling the buffer allocates nothing.
class BranchBuffer final : public algos::BranchSink {
 public:
  /// Replaces the contents with the branches of `p`'s step from `state`,
  /// which must outlive every later read of them.
  void fill(const algos::Algorithm& algo, const graph::Topology& t, const SimState& state,
            PhilId p) {
    state_ = &state;
    size_ = 0;
    algo.step(t, state, p, scratch_, *this);
  }

  void operator()(double prob, const StepEvent& event, const SimState& next) override {
    if (size_ == slots_.size()) {
      slots_.emplace_back();
      is_state_.push_back(false);
    }
    Branch& slot = slots_[size_];
    slot.prob = prob;
    slot.event = event;
    is_state_[size_] = &next == state_;
    if (!is_state_[size_]) {
      GDP_DCHECK(&next == &scratch_);
      std::swap(slot.next, scratch_);
    }
    ++size_;
  }

  /// The branches; the `next` of a flagged one is stale (see next()).
  std::span<const Branch> branches() const { return {slots_.data(), size_}; }

  /// True iff branch i's successor is the stepped state itself.
  bool is_state(std::size_t i) const { return is_state_[i]; }

  /// Branch i's successor.
  const SimState& next(std::size_t i) const { return is_state_[i] ? *state_ : slots_[i].next; }

  /// Makes `state`, the stepped state, branch i's successor; the slot keeps
  /// the old storage for a later step.
  void advance(std::size_t i, SimState& state) {
    GDP_DCHECK(&state == state_);
    if (!is_state_[i]) std::swap(state, slots_[i].next);
  }

  /// True iff every branch leaves the stepped state unchanged.
  bool self_loop() const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (!is_state_[i] && !(slots_[i].next == *state_)) return false;
    }
    return true;
  }

 private:
  std::vector<Branch> slots_;
  std::vector<bool> is_state_;
  std::size_t size_ = 0;
  SimState scratch_;
  const SimState* state_ = nullptr;
};

/// True iff no philosopher can change the configuration: a real deadlock.
bool all_self_loops(const algos::Algorithm& algo, const graph::Topology& t,
                    const SimState& state, BranchBuffer& buffer) {
  for (PhilId p = 0; p < t.num_phils(); ++p) {
    buffer.fill(algo, t, state, p);
    if (!buffer.self_loop()) return false;
  }
  return true;
}

}  // namespace

RunResult run(const algos::Algorithm& algo, const graph::Topology& t, Scheduler& sched,
              rng::RandomSource& rng, const EngineConfig& config) {
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

  BranchBuffer buffer;
  RunView view;
  view.steps_of = &steps_of;
  view.last_scheduled = &last_scheduled;

  for (std::uint64_t step = 0; step < config.max_steps; ++step) {
    view.step_index = step;
    view.total_meals = result.total_meals;

    const PhilId p = sched.pick(t, state, view, rng);
    GDP_CHECK_MSG(p >= 0 && p < t.num_phils(), sched.name() << " picked invalid philosopher " << p);

    buffer.fill(algo, t, state, p);
    const std::span<const Branch> branches = buffer.branches();
    const Branch& chosen = sample_branch(branches, rng);
    const auto c = static_cast<std::size_t>(&chosen - branches.data());
    const SimState& next = buffer.next(c);  // valid until buffer.advance()
    const bool unchanged = buffer.is_state(c) || next == state;

    // Bookkeeping before the state moves on.
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
        // Arbiter grants both forks at once: that is the meal start.
        if (next.phil(p).phase == Phase::kEating) {
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

    buffer.advance(c, state);
    sched.observe(t, state, p, chosen.event);
    result.steps = step + 1;

    if (config.check_invariants) {
      result.invariant_violation = check_invariants(state, t);
      if (!result.invariant_violation.empty()) break;
    }

    // Deadlock probe: only bother once every philosopher in a row was stuck.
    consecutive_self_loops = unchanged ? consecutive_self_loops + 1 : 0;
    if (consecutive_self_loops >= static_cast<std::uint64_t>(t.num_phils()) &&
        all_self_loops(algo, t, state, buffer)) {
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

  // Fold unfinished hungers into the lockout metric.
  for (std::size_t i = 0; i < n; ++i) {
    if (hungry_since[i] != kNever) {
      result.max_hunger_of[i] = std::max(result.max_hunger_of[i], result.steps - hungry_since[i]);
    }
  }
  result.final_state = std::move(state);
  return result;
}

}  // namespace gdp::sim
