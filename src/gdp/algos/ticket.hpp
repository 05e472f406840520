// Baseline 4 of the paper's introduction: "There is a box with n-1 tickets,
// where n is the number of the philosophers, and each philosopher must get a
// ticket before trying to get the forks."
//
// With a ticket in hand the philosopher grabs left then right, holding and
// waiting. On the *classic ring* this is deadlock-free: a deadlock would
// need all n philosophers holding one fork each, but only n-1 may hold
// tickets. On generalized topologies the argument breaks — a deadlocked
// cycle can involve fewer than n philosophers (e.g. 3 of the 6 on Figure
// 1a's doubled triangle), all of them ticketed. Experiment E9 exhibits the
// deadlock; validate() therefore accepts any topology on purpose.
//
// aux layout: aux[0] = tickets remaining. NOT fully distributed (the box is
// shared memory).
#pragma once

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

class Ticket final : public Algorithm {
 public:
  explicit Ticket(AlgoConfig config = {}) : Algorithm(config) {}

  std::string name() const override { return "ticket"; }
  bool fully_distributed() const override { return false; }

  using Algorithm::step;
  void step(const graph::Topology& t, const sim::SimState& state, PhilId p,
            sim::SimState& next, BranchSink& sink) const override;

 protected:
  void init_aux(sim::SimState& state, const graph::Topology& t) const override;
};

}  // namespace gdp::algos
