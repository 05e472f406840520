// E3 — Theorem 1: a ring with one extra arc on a ring node defeats LR1.
//
// Paper (Theorem 1 + Figure 2): "Consider a graph G containing a ring
// subgraph H, such that one of the nodes of H has at least three incident
// arcs. Then a fair scheduler for LR1 exists such that the philosophers in
// H make no progress with strictly positive probability."
//
// Two instruments:
//  (a) the model checker decides the statement exactly on small instances
//      (progress *wrt the ring philosophers H*);
//  (b) the generic EatAvoider adversary measures how much a fair greedy
//      adversary can suppress LR1's meal rate on the family vs the plain
//      ring, and cannot suppress GDP1 at all.
// Expected shape: (a) LR1 fails wrt H on every ring+chord/pendant instance
// while GDP1 is certified; (b) LR1's adversarial meal rate collapses off
// the plain ring, GDP1's does not.
#include "bench_util.hpp"

#include "gdp/common/strings.hpp"
#include "gdp/exp/runner.hpp"
#include "gdp/graph/algorithms.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/model.hpp"

using namespace gdp;

namespace {

std::uint64_t ring_mask(int k) { return (std::uint64_t{1} << k) - 1; }

}  // namespace

int main() {
  bench::enable_obs();
  bench::banner("E3: Theorem 1 (ring + extra arc vs LR1)",
                "Theorem 1 and Figure 2",
                "LR1 loses progress wrt H exactly when the premise holds; GDP1 keeps global progress");

  std::printf("(a) model-checked verdicts (progress wrt the ring philosophers H):\n");
  stats::Table verdicts({"topology", "premise", "lr1 global", "lr1 wrt H", "gdp1 global"});
  struct Case {
    graph::Topology topo;
    int ring_size;
  };
  const Case cases[] = {{graph::classic_ring(3), 3},
                        {graph::classic_ring(4), 4},
                        {graph::ring_with_pendant(3), 3},
                        {graph::ring_with_chord(3), 3},
                        {graph::ring_with_chord(4), 4}};
  for (const auto& c : cases) {
    const bool premise = graph::thm1_premise(c.topo).has_value();
    mdp::CheckOptions opts;
    const auto lr1_model = mdp::explore(*algos::make_algorithm("lr1"), c.topo, opts);
    const auto lr1_global = mdp::check_fair_progress(lr1_model);
    const auto lr1_ring = mdp::check_fair_progress(lr1_model, ring_mask(c.ring_size));
    // GDP1's guarantee (Theorem 3) is *global* progress; subset progress is
    // not promised (GDP1 is not lockout-free, §5), so we report the global
    // verdict for it.
    mdp::CheckOptions gdp1_opts;
    gdp1_opts.max_states = 3'000'000;
    const auto gdp1_ring =
        mdp::check_fair_progress(*algos::make_algorithm("gdp1"), c.topo, gdp1_opts);
    verdicts.add_row({c.topo.name(), premise ? "yes" : "no",
                      lr1_global.holds() ? "progress" : "FAILS",
                      lr1_ring.holds() ? "progress" : "FAILS",
                      gdp1_ring.verdict == mdp::Verdict::kUnknownTruncated
                          ? "unknown"
                          : (gdp1_ring.holds() ? "progress" : "FAILS")});
  }
  verdicts.print();

  std::printf("\n(b) meals conceded to a fair greedy adversary in 120k steps\n"
              "    (one gdp::exp campaign over the topology x algorithm grid):\n");
  exp::CampaignSpec spec;
  spec.name = "thm1-eat-avoider";
  spec.seed = 11;
  spec.trials = 1;
  spec.topologies = {graph::classic_ring(6), graph::ring_with_pendant(5),
                     graph::ring_with_chord(6), graph::fig1a()};
  spec.algorithms = {"lr1", "gdp1"};
  spec.schedulers = {exp::eat_avoider()};
  spec.engine.max_steps = 120'000;
  const auto result = exp::run_campaign(spec);

  stats::Table meals({"topology", "lr1 meals", "gdp1 meals", "lr1 suppressed?"});
  for (std::size_t ti = 0; ti < spec.topologies.size(); ++ti) {
    // Cells are topology-major with algorithm next: lr1 first, then gdp1.
    const auto lr1 = static_cast<std::uint64_t>(result.at(ti * 2).meals().mean());
    const auto gdp1 = static_cast<std::uint64_t>(result.at(ti * 2 + 1).meals().mean());
    meals.add_row({spec.topologies[ti].name(), bench::fmt_u64(lr1), bench::fmt_u64(gdp1),
                   lr1 * 2 < gdp1 ? "strongly" : (lr1 < gdp1 ? "somewhat" : "no")});
  }
  meals.print();
  bench::write_bench_report("thm1_ring_chord");
  return 0;
}
