// Microbenchmarks (google-benchmark) over the library's hot paths: RNG,
// a single algorithm step, whole-engine simulation throughput, MDP
// exploration rate and the π guarded-choice layer.
#include <benchmark/benchmark.h>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/pi/guarded_choice.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"

namespace {

using namespace gdp;

void BM_RngNextU64(benchmark::State& state) {
  rng::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngUniformInt(benchmark::State& state) {
  rng::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform_int(1, 97));
}
BENCHMARK(BM_RngUniformInt);

void BM_AlgorithmStep(benchmark::State& state) {
  const auto algo = algos::make_algorithm(state.range(0) == 0 ? "lr1" : "gdp1");
  const auto t = graph::fig1a();
  const auto s = algo->initial_state(t);
  PhilId p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo->step(t, s, p));
    p = (p + 1) % t.num_phils();
  }
}
BENCHMARK(BM_AlgorithmStep)->Arg(0)->Arg(1);

void BM_EngineSteps(benchmark::State& state) {
  const auto algo = algos::make_algorithm("gdp1");
  const auto t = graph::classic_ring(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sim::RandomUniform sched;
    rng::Rng rng(7);
    sim::EngineConfig cfg;
    cfg.max_steps = 10'000;
    benchmark::DoNotOptimize(sim::run(*algo, t, sched, rng, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EngineSteps)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_MdpExplore(benchmark::State& state) {
  const auto algo = algos::make_algorithm("lr1");
  const auto t = graph::classic_ring(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto model = mdp::explore(*algo, t, {.threads = 1, .max_states = 2'000'000});
    benchmark::DoNotOptimize(model.num_states());
    state.counters["states"] = static_cast<double>(model.num_states());
  }
  state.SetLabel("complete exploration");
}
BENCHMARK(BM_MdpExplore)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FairProgressCheck(benchmark::State& state) {
  const auto algo = algos::make_algorithm("lr1");
  const auto t = graph::parallel_arcs(3);
  const auto model = mdp::explore(*algo, t, {.max_states = 1'000'000});
  for (auto _ : state) {
    benchmark::DoNotOptimize(mdp::check_fair_progress(model));
  }
}
BENCHMARK(BM_FairProgressCheck)->Unit(benchmark::kMicrosecond);

void BM_GuardedChoice(benchmark::State& state) {
  const auto t = graph::classic_ring(4);
  for (auto _ : state) {
    pi::ChoiceConfig cfg;
    cfg.target_syncs = 500;
    cfg.max_duration = std::chrono::milliseconds(10'000);
    benchmark::DoNotOptimize(pi::run_guarded_choice(t, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_GuardedChoice)->Unit(benchmark::kMillisecond);

}  // namespace
