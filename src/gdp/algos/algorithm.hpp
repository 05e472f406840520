// The Algorithm interface: a philosopher program as an atomic-step relation.
//
// Every algorithm of the paper (Tables 1-4) and every §1 baseline implements
// step(): given the topology, the current configuration and a scheduled
// philosopher, emit the probability distribution over successors that one
// atomic action of that philosopher induces. Enumerated branches make the
// same code serve the sampling simulator, the exact replayer and the MDP
// model checker.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gdp/common/ids.hpp"
#include "gdp/graph/topology.hpp"
#include "gdp/sim/state.hpp"
#include "gdp/sim/step.hpp"

namespace gdp::algos {

/// How the paper's `think` action, which may never end, is modelled: the
/// proofs quantify over philosophers that all become hungry, and the
/// throughput experiments need thinking that ends at random.
enum class ThinkMode : std::uint8_t {
  /// think ends at the philosopher's next scheduled step: the "all
  /// philosophers hungry" setting every proof quantifies over.
  kHungry,
  /// think ends with probability `think_coin` per scheduled step
  /// (geometric thinking; for throughput-style experiments).
  kCoin,
};

struct AlgoConfig {
  ThinkMode think = ThinkMode::kHungry;
  double think_coin = 0.5;

  /// Bias of LR1/LR2's first-fork draw: P(left). The paper notes its
  /// negative results hold for any positive bias (§3).
  double p_left = 0.5;

  /// GDP's numbering range [1, m]; the correctness proof needs m >= k
  /// (number of forks). 0 = automatic (m = k).
  int m = 0;
};

/// Receives the branches of one step, one call per branch, in order.
class BranchSink {
 public:
  virtual void operator()(double prob, const sim::StepEvent& event,
                          const sim::SimState& next) = 0;

 protected:
  ~BranchSink() = default;
};

/// A BranchSink over any callable f(prob, event, next).
template <class F>
class SinkFn final : public BranchSink {
 public:
  explicit SinkFn(F f) : f_(std::move(f)) {}
  void operator()(double prob, const sim::StepEvent& event,
                  const sim::SimState& next) override {
    f_(prob, event, next);
  }

 private:
  F f_;
};

class Algorithm {
 public:
  explicit Algorithm(AlgoConfig config) : config_(config) {}
  virtual ~Algorithm() = default;

  virtual std::string name() const = 0;

  /// LR2/GDP2-style request lists + guest books in play?
  virtual bool uses_books() const { return false; }
  /// GDP-style fork numbering: does step() ever write ForkState::nr?
  /// The packed state-key layout (gdp::mdp::KeyCodec) allocates nr bits
  /// only when true.
  virtual bool uses_numbers() const { return false; }
  /// Symmetric = philosophers indistinguishable & identically programmed.
  virtual bool symmetric() const { return true; }
  /// Fully distributed = no processes/memory beyond philosophers & forks.
  virtual bool fully_distributed() const { return true; }

  /// Throws PreconditionError if the config is out of range on every
  /// topology: p_left must lie in [0, 1], in kCoin mode think_coin in
  /// (0, 1], m must not be negative, and a GDP numbering range must fit
  /// 16 bits.
  void validate_config() const;

  /// Throws PreconditionError if this algorithm cannot run on `t` with its
  /// config: validate_config(), plus the topology's own constraints (e.g.
  /// colored needs an even ring; books need degree <= 64; m >= k).
  virtual void validate(const graph::Topology& t) const;

  /// The symmetric initial configuration: everyone thinking, all forks free
  /// with nr = 0, empty books; baselines may add aux state via init_aux().
  sim::SimState initial_state(const graph::Topology& t) const;

  /// All probabilistic branches of one atomic step of philosopher `p`,
  /// emitted into `sink` as (prob, event, next), one call per branch.
  /// Branch probabilities are positive and sum to 1; there is at least one.
  ///
  /// `scratch` is caller-owned working storage, distinct from `state`. Its
  /// contents are unspecified on entry, after each sink call (the caller
  /// may even move from it) and on return: step() rebuilds it from `state`
  /// for every branch it builds there, whatever shape it had. A caller
  /// reusing one scratch across calls pays no allocation once it has the
  /// state's shape. `next` is either `state` itself (a busy-wait self-loop)
  /// or `scratch`, and is valid only during the sink call: a sink that needs
  /// the successor later copies it, or swaps the scratch out for storage of
  /// the same shape.
  ///
  /// Every hot caller steps through this form: the explorer (one scratch
  /// per expansion block, successors encoded in the sink), the simulator
  /// sim::run (branches swapped into a reused buffer) and its deadlock probe
  /// (the same buffer), and the lookahead adversaries EatAvoider and
  /// StarveVictim (flags computed in the sink over their own scratch).
  virtual void step(const graph::Topology& t, const sim::SimState& state, PhilId p,
                    sim::SimState& scratch, BranchSink& sink) const = 0;

  /// The branches of step(t, state, p, scratch, sink), collected: a
  /// convenience for tests, examples and one-off replays, which allocates a
  /// vector and one successor state per branch.
  std::vector<sim::Branch> step(const graph::Topology& t, const sim::SimState& state,
                                PhilId p) const;

  const AlgoConfig& config() const { return config_; }

  /// Effective GDP numbering range for topology t (config.m, or k if auto).
  int effective_m(const graph::Topology& t) const;

 protected:
  /// Hook for baselines to set up aux words (arbiter queue, ticket box).
  /// Contract: the word count is fixed for the run and every value stays in
  /// [-1, num_phils - 1] (philosopher ids, -1 sentinels, small counters) —
  /// the packed state-key layout sizes its aux fields to exactly that range
  /// and refuses larger values.
  virtual void init_aux(sim::SimState&, const graph::Topology&) const {}

  /// Handles Phase::kThinking according to the think mode; on waking, the
  /// philosopher moves to `first_phase` (kChoose, kRegister, ...). Same
  /// scratch and sink contract as step().
  void think_step(const sim::SimState& state, PhilId p, sim::Phase first_phase,
                  sim::SimState& scratch, BranchSink& sink) const;

  AlgoConfig config_;
};

/// Factory by name: "lr1", "lr2", "gdp1", "gdp2", "gdp2c", "ordered",
/// "colored" (the two-fork programs of two_fork.hpp), "arbiter", "ticket".
/// Throws PreconditionError for unknown names.
std::unique_ptr<Algorithm> make_algorithm(const std::string& name, AlgoConfig config = {});

/// All factory names, in presentation order.
std::vector<std::string> algorithm_names();

}  // namespace gdp::algos
