// E12 — real-concurrency validation: std::thread philosophers, lock-free
// CAS forks, the OS as the adversary.
//
// Not a paper figure: the substitution study showing the algorithms are not
// simulation artifacts. Expected shape: zero mutual-exclusion violations
// for every algorithm; throughput ordering gdp1 ~ lr1 ~ ordered > gdp2 >
// gdp2c (courtesy costs); courteous variants keep everyone fed; latency
// percentiles finite and ordered.
#include "bench_util.hpp"

#include "gdp/common/check.hpp"
#include "gdp/common/strings.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/runtime/runtime.hpp"
#include "gdp/stats/jain.hpp"

using namespace gdp;

int main() {
  bench::enable_obs();
  bench::banner("E12: thread runtime",
                "substitution study (real concurrency; OS scheduling as adversary)",
                "0 exclusion violations; courtesy trades throughput for fairness");

  const graph::Topology systems[] = {graph::classic_ring(4), graph::classic_ring(8),
                                     graph::fig1a(), graph::fig1b(), graph::parallel_arcs(6)};

  stats::Table table({"system", "algorithm", "meals/s", "p50 hunger (us)", "p99 hunger (us)",
                      "jain", "everyone ate", "violations"});
  for (const auto& t : systems) {
    for (const std::string name : runtime::runtime_algorithms()) {
      runtime::RuntimeConfig cfg;
      cfg.algorithm = name;
      cfg.seed = 99;
      cfg.duration = std::chrono::milliseconds(300);
      runtime::RuntimeResult r;
      try {
        r = runtime::run_threads(t, cfg);
      } catch (const PreconditionError&) {
        // colored runs on even classic rings only.
        table.add_row({t.name(), name, "n/a", "n/a", "n/a", "n/a", "n/a", "n/a"});
        continue;
      }
      table.add_row({t.name(), name, format_double(r.meals_per_second, 0),
                     format_double(r.hunger_p50_ns / 1000.0, 1),
                     format_double(r.hunger_p99_ns / 1000.0, 1),
                     format_double(stats::jain_index(r.meals_of), 3),
                     r.everyone_ate() ? "yes" : "no",
                     bench::fmt_u64(r.exclusion_violations)});
    }
    table.add_rule();
  }
  table.print();

  std::printf("\nContended workload (eat_work=500) on parallel(6):\n");
  stats::Table hot({"algorithm", "meals/s", "jain", "violations"});
  for (const std::string name : {"lr1", "gdp1", "gdp2c"}) {
    runtime::RuntimeConfig cfg;
    cfg.algorithm = name;
    cfg.duration = std::chrono::milliseconds(300);
    cfg.eat_work = 500;
    const auto r = runtime::run_threads(graph::parallel_arcs(6), cfg);
    hot.add_row({name, format_double(r.meals_per_second, 0),
                 format_double(stats::jain_index(r.meals_of), 3),
                 bench::fmt_u64(r.exclusion_violations)});
  }
  hot.print();
  bench::write_bench_report("threads");
  return 0;
}
