// Baseline 3 of the paper's introduction: "There is a central monitor which
// controls the assignment of the forks to the philosophers."
//
// The monitor keeps a FIFO queue of hungry philosophers. A waiting
// philosopher is granted (and atomically takes both forks) when both forks
// are free and no *earlier-queued* waiter needs either of them — FIFO with
// conflict reservations, which makes the baseline lockout-free. The monitor
// has no thread of its own: its bookkeeping is folded into the waiting
// philosophers' steps (it is a centralized baseline either way — the queue
// is shared memory, so the solution is NOT fully distributed).
//
// aux layout: aux[0..n-1] is the queue (philosopher ids in arrival order,
// -1 for empty slots), compacted on removal.
#pragma once

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

class CentralArbiter final : public Algorithm {
 public:
  explicit CentralArbiter(AlgoConfig config = {}) : Algorithm(config) {}

  std::string name() const override { return "arbiter"; }
  bool fully_distributed() const override { return false; }

  using Algorithm::step;
  void step(const graph::Topology& t, const sim::SimState& state, PhilId p,
            sim::SimState& next, BranchSink& sink) const override;

 protected:
  void init_aux(sim::SimState& state, const graph::Topology& t) const override;
};

}  // namespace gdp::algos
