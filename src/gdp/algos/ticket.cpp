#include "gdp/algos/ticket.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

void Ticket::init_aux(SimState& state, const graph::Topology& t) const {
  state.aux.assign(1, t.num_phils() - 1);
}

void Ticket::step(const graph::Topology& t, const SimState& state, PhilId p, SimState& next,
                  BranchSink& sink) const {
  GDP_DCHECK(&next != &state);
  const sim::PhilState& me = state.phil(p);

  switch (me.phase) {
    case Phase::kThinking:
      think_step(state, p, Phase::kWaitGrant, next, sink);
      return;

    case Phase::kWaitGrant: {
      // Draw a ticket from the box (atomic decrement) or keep waiting.
      if (state.aux[0] > 0) {
        next = state;
        --next.aux[0];
        next.phil(p).phase = Phase::kCommit;
        next.phil(p).committed = Side::kLeft;  // ticketed grab order: left, right
        sink(1.0, StepEvent{EventKind::kGranted}, next);
      } else {
        sink(1.0, StepEvent{EventKind::kWaiting}, state);
      }
      return;
    }

    case Phase::kCommit: {
      const ForkId f = t.left_of(p);
      if (state.fork(f).free()) {
        next = state;
        sim::try_take(next, f, p);
        next.phil(p).phase = Phase::kTrySecond;
        sink(1.0, StepEvent{EventKind::kTookFirst, Side::kLeft, f, 0}, next);
      } else {
        sink(1.0, StepEvent{EventKind::kBlockedFirst, Side::kLeft, f, 0}, state);
      }
      return;
    }

    case Phase::kTrySecond: {
      // Hold-and-wait for the right fork.
      const ForkId g = t.right_of(p);
      if (state.fork(g).free()) {
        next = state;
        sim::try_take(next, g, p);
        next.phil(p).phase = Phase::kEating;
        sink(1.0, StepEvent{EventKind::kTookSecond, Side::kRight, g, 0}, next);
      } else {
        sink(1.0, StepEvent{EventKind::kBlockedSecond, Side::kRight, g, 0}, state);
      }
      return;
    }

    case Phase::kEating: {
      next = state;
      sim::release(next, t.left_of(p), p);
      sim::release(next, t.right_of(p), p);
      ++next.aux[0];  // return the ticket
      next.phil(p).phase = Phase::kThinking;
      sink(1.0, StepEvent{EventKind::kFinishedEating}, next);
      return;
    }

    case Phase::kRegister:
    case Phase::kChoose:
    case Phase::kRenumber:
      break;
  }
  GDP_CHECK_MSG(false, "ticket: philosopher " << p << " in foreign phase");
  __builtin_unreachable();
}

}  // namespace gdp::algos
