#include "gdp/algos/central_arbiter.hpp"

#include <algorithm>

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

void CentralArbiter::init_aux(SimState& state, const graph::Topology& t) const {
  state.aux.assign(static_cast<std::size_t>(t.num_phils()), -1);
}

namespace {

void enqueue(SimState& state, PhilId p) {
  for (auto& slot : state.aux) {
    if (slot == -1) {
      slot = p;
      return;
    }
  }
  GDP_CHECK_MSG(false, "arbiter queue overflow — philosopher enqueued twice?");
}

void dequeue(SimState& state, PhilId p) {
  auto& queue = state.aux;
  const auto it = std::find(queue.begin(), queue.end(), p);
  GDP_DCHECK(it != queue.end());
  queue.erase(it);
  queue.push_back(-1);  // keep the vector size (and the encoding) stable
}

/// Grant rule: both forks free and no earlier waiter shares a fork with p.
bool may_grant(const SimState& state, const graph::Topology& t, PhilId p) {
  const ForkId left = t.left_of(p);
  const ForkId right = t.right_of(p);
  if (!state.fork(left).free() || !state.fork(right).free()) return false;
  for (std::int32_t earlier : state.aux) {
    if (earlier == -1 || earlier == p) break;  // reached p (or open slots)
    const auto& arc = t.arc(earlier);
    if (arc.left == left || arc.left == right || arc.right == left || arc.right == right) {
      return false;  // reserved by an earlier conflicting waiter
    }
  }
  return true;
}

}  // namespace

void CentralArbiter::step(const graph::Topology& t, const SimState& state, PhilId p,
                          SimState& next, BranchSink& sink) const {
  GDP_DCHECK(&next != &state);
  const sim::PhilState& me = state.phil(p);

  switch (me.phase) {
    case Phase::kThinking:
      think_step(state, p, Phase::kRegister, next, sink);
      return;

    case Phase::kRegister: {
      // Ask the monitor for both forks.
      next = state;
      enqueue(next, p);
      next.phil(p).phase = Phase::kWaitGrant;
      sink(1.0, StepEvent{EventKind::kRegistered}, next);
      return;
    }

    case Phase::kWaitGrant: {
      if (may_grant(state, t, p)) {
        next = state;
        const bool left_ok = sim::try_take(next, t.left_of(p), p);
        const bool right_ok = sim::try_take(next, t.right_of(p), p);
        GDP_DCHECK(left_ok && right_ok);
        (void)left_ok;
        (void)right_ok;
        dequeue(next, p);
        next.phil(p).phase = Phase::kEating;
        sink(1.0, StepEvent{EventKind::kGranted}, next);
      } else {
        sink(1.0, StepEvent{EventKind::kWaiting}, state);
      }
      return;
    }

    case Phase::kEating: {
      next = state;
      sim::release(next, t.left_of(p), p);
      sim::release(next, t.right_of(p), p);
      next.phil(p).phase = Phase::kThinking;
      sink(1.0, StepEvent{EventKind::kFinishedEating}, next);
      return;
    }

    case Phase::kChoose:
    case Phase::kCommit:
    case Phase::kRenumber:
    case Phase::kTrySecond:
      break;
  }
  GDP_CHECK_MSG(false, "arbiter: philosopher " << p << " in foreign phase");
  __builtin_unreachable();
}

}  // namespace gdp::algos
