#include "gdp/algos/two_fork.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

namespace {

constexpr TwoForkVariant kVariants[] = {
    // name      first fork            courteous  cond 2nd  hold 2nd
    {"lr1",      FirstFork::kDraw,     false,     false,    false},
    {"lr2",      FirstFork::kDraw,     true,      false,    false},
    {"gdp1",     FirstFork::kHigherNr, false,     false,    false},
    {"gdp2",     FirstFork::kHigherNr, true,      false,    false},
    {"gdp2c",    FirstFork::kHigherNr, true,      true,     false},
    {"ordered",  FirstFork::kHigherId, false,     false,    true},
    {"colored",  FirstFork::kColor,    false,     false,    true},
};

void set_request(SimState& state, const graph::Topology& t, ForkId f, PhilId p, bool on) {
  const int slot = t.slot_of(f, p);
  if (on) {
    state.fork(f).requests |= (std::uint64_t{1} << slot);
  } else {
    state.fork(f).requests &= ~(std::uint64_t{1} << slot);
  }
}

class TwoFork final : public Algorithm {
 public:
  TwoFork(const TwoForkVariant& v, AlgoConfig config) : Algorithm(config), v_(v) {}

  std::string name() const override { return v_.name; }
  bool uses_books() const override { return v_.courteous; }
  bool uses_numbers() const override { return v_.first == FirstFork::kHigherNr; }
  /// Only the baselines' first-fork rules read fork or philosopher ids.
  bool symmetric() const override {
    return v_.first == FirstFork::kDraw || v_.first == FirstFork::kHigherNr;
  }

  void validate(const graph::Topology& t) const override;

  using Algorithm::step;
  void step(const graph::Topology& t, const SimState& state, PhilId p, SimState& next,
            BranchSink& sink) const override;

 private:
  const TwoForkVariant& v_;
};

void TwoFork::validate(const graph::Topology& t) const {
  Algorithm::validate(t);
  if (v_.first != FirstFork::kColor) return;
  const int n = t.num_phils();
  GDP_CHECK_MSG(n >= 2 && n % 2 == 0, "colored needs an even ring; got " << n << " philosophers");
  GDP_CHECK_MSG(t.num_forks() == n, "colored needs a classic ring (n forks), got k="
                                        << t.num_forks() << " for n=" << n);
  for (PhilId p = 0; p < n; ++p) {
    GDP_CHECK_MSG(t.left_of(p) == p && t.right_of(p) == (p + 1) % n,
                  "colored needs the canonical ring orientation (phil i: left=i, right=i+1); "
                  "philosopher " << p << " deviates");
  }
}

void TwoFork::step(const graph::Topology& t, const SimState& state, PhilId p, SimState& next,
                   BranchSink& sink) const {
  GDP_DCHECK(&next != &state);
  const sim::PhilState& me = state.phil(p);

  switch (me.phase) {
    case Phase::kThinking:
      think_step(state, p, v_.courteous ? Phase::kRegister : Phase::kChoose, next, sink);
      return;

    case Phase::kRegister: {
      if (!v_.courteous) break;
      // LR2 / GDP2 step 2: announce interest on both forks.
      next = state;
      set_request(next, t, t.left_of(p), p, true);
      set_request(next, t, t.right_of(p), p, true);
      next.phil(p).phase = Phase::kChoose;
      sink(1.0, StepEvent{EventKind::kRegistered}, next);
      return;
    }

    case Phase::kChoose: {
      auto chose = [&](Side side, double prob) {
        next = state;
        next.phil(p).phase = Phase::kCommit;
        next.phil(p).committed = side;
        sink(prob, StepEvent{EventKind::kChose, side, t.fork_of(p, side), 0}, next);
      };
      switch (v_.first) {
        case FirstFork::kDraw:
          // fork := random_choice(left, right); a zero-probability side is dropped.
          if (config_.p_left > 0.0) chose(Side::kLeft, config_.p_left);
          if (1.0 - config_.p_left > 0.0) chose(Side::kRight, 1.0 - config_.p_left);
          break;
        case FirstFork::kHigherNr:
          chose(state.fork(t.left_of(p)).nr > state.fork(t.right_of(p)).nr ? Side::kLeft
                                                                           : Side::kRight,
                1.0);
          break;
        case FirstFork::kHigherId:
          chose(t.left_of(p) > t.right_of(p) ? Side::kLeft : Side::kRight, 1.0);
          break;
        case FirstFork::kColor:
          // Yellow (even id) -> left first; blue (odd id) -> right first.
          chose(p % 2 == 0 ? Side::kLeft : Side::kRight, 1.0);
          break;
      }
      return;
    }

    case Phase::kCommit: {
      // Test-and-set on the first fork, busy-wait on failure; a courteous
      // philosopher also needs Cond(fork).
      const ForkId f = t.fork_of(p, me.committed);
      if ((!v_.courteous || sim::cond_holds(state, t, f, p)) && state.fork(f).free()) {
        next = state;
        sim::try_take(next, f, p);
        next.phil(p).phase =
            v_.first == FirstFork::kHigherNr ? Phase::kRenumber : Phase::kTrySecond;
        sink(1.0, StepEvent{EventKind::kTookFirst, me.committed, f, 0}, next);
      } else {
        sink(1.0, StepEvent{EventKind::kBlockedFirst, me.committed, f, 0}, state);
      }
      return;
    }

    case Phase::kRenumber: {
      if (v_.first != FirstFork::kHigherNr) break;
      // GDP: holding the first fork — re-randomize its nr on equality.
      const ForkId f = t.fork_of(p, me.committed);
      const ForkId g = t.other_fork(p, f);
      if (state.fork(f).nr == state.fork(g).nr) {
        const int m = effective_m(t);
        for (int v = 1; v <= m; ++v) {
          next = state;
          next.fork(f).nr = static_cast<std::uint16_t>(v);
          next.phil(p).phase = Phase::kTrySecond;
          sink(1.0 / m, StepEvent{EventKind::kRenumbered, me.committed, f, v}, next);
        }
      } else {
        next = state;
        next.phil(p).phase = Phase::kTrySecond;
        sink(1.0, StepEvent{EventKind::kNrDistinct, me.committed, f, 0}, next);
      }
      return;
    }

    case Phase::kTrySecond: {
      // The second fork needs isFree (plus Cond for gdp2c). On failure
      // either hold the first and wait, or release it and choose again.
      const ForkId f = t.fork_of(p, me.committed);
      const ForkId g = t.other_fork(p, f);
      if ((!v_.cond_on_second || sim::cond_holds(state, t, g, p)) && state.fork(g).free()) {
        next = state;
        sim::try_take(next, g, p);
        next.phil(p).phase = Phase::kEating;
        sink(1.0, StepEvent{EventKind::kTookSecond, me.committed, g, 0}, next);
      } else if (v_.hold_second) {
        sink(1.0, StepEvent{EventKind::kBlockedSecond, me.committed, g, 0}, state);
      } else {
        next = state;
        sim::release(next, f, p);
        next.phil(p).phase = Phase::kChoose;
        sink(1.0, StepEvent{EventKind::kFailedSecond, me.committed, g, 0}, next);
      }
      return;
    }

    case Phase::kEating: {
      // Finish eating: a courteous philosopher deregisters and signs both
      // guest books; then release both and think.
      next = state;
      if (v_.courteous) {
        set_request(next, t, t.left_of(p), p, false);
        set_request(next, t, t.right_of(p), p, false);
        sim::mark_used(next, t, t.left_of(p), p);
        sim::mark_used(next, t, t.right_of(p), p);
      }
      sim::release(next, t.left_of(p), p);
      sim::release(next, t.right_of(p), p);
      next.phil(p).phase = Phase::kThinking;
      sink(1.0, StepEvent{EventKind::kFinishedEating}, next);
      return;
    }

    case Phase::kWaitGrant:
      break;
  }
  GDP_CHECK_MSG(false, name() << ": philosopher " << p << " in foreign phase");
  __builtin_unreachable();
}

}  // namespace

std::span<const TwoForkVariant> two_fork_variants() { return kVariants; }

const TwoForkVariant* find_two_fork(const std::string& name) {
  for (const TwoForkVariant& v : kVariants) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

std::unique_ptr<Algorithm> make_two_fork(const std::string& name, AlgoConfig config) {
  const TwoForkVariant* v = find_two_fork(name);
  return v ? std::make_unique<TwoFork>(*v, config) : nullptr;
}

}  // namespace gdp::algos
