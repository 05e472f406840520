// Microbenchmarks (google-benchmark) over the library's hot paths: RNG,
// a single algorithm step, whole-engine simulation throughput, MDP
// exploration rate at threads 1 and hw, MEC decomposition over each model
// representation, the pool's per-call and per-index cost and the π
// guarded-choice layer.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/pi/guarded_choice.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"
#include "gdp/sim/schedulers/eat_avoider.hpp"

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

// Args: algorithm (0 = lr1, 1 = gdp1), form (0 = the collecting step()
// that returns a vector of branches, 1 = the sink form over one reused
// scratch, as the explorer calls it). Items are branches.
void BM_AlgorithmStep(benchmark::State& state) {
  const auto algo = algos::make_algorithm(state.range(0) == 0 ? "lr1" : "gdp1");
  const bool sink_form = state.range(1) == 1;
  const auto t = graph::fig1a();
  const auto s = algo->initial_state(t);
  sim::SimState scratch;
  std::uint64_t branches = 0;
  algos::SinkFn count([&branches](double prob, const sim::StepEvent&, const sim::SimState& next) {
    benchmark::DoNotOptimize(prob);
    benchmark::DoNotOptimize(next.phils.data());
    ++branches;
  });
  PhilId p = 0;
  for (auto _ : state) {
    if (sink_form) {
      algo->step(t, s, p, scratch, count);
    } else {
      const auto collected = algo->step(t, s, p);
      benchmark::DoNotOptimize(collected.data());
      branches += collected.size();
    }
    p = (p + 1) % t.num_phils();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}
BENCHMARK(BM_AlgorithmStep)->ArgsProduct({{0, 1}, {0, 1}});

// Args: ring size, algorithm (0 = gdp1, 1 = gdp2, 2 = lr2), scheduler
// (0 = uniform, 1 = eat-avoider, whose every pick looks ahead at each
// philosopher's pending step). Items are engine steps.
void BM_EngineSteps(benchmark::State& state) {
  const std::array<const char*, 3> names = {"gdp1", "gdp2", "lr2"};
  const auto algo = algos::make_algorithm(names[static_cast<std::size_t>(state.range(1))]);
  const auto t = graph::classic_ring(static_cast<int>(state.range(0)));
  const bool eat_avoider = state.range(2) == 1;
  for (auto _ : state) {
    sim::RandomUniform uniform;
    sim::EatAvoider avoider(*algo);
    sim::Scheduler& sched = eat_avoider ? static_cast<sim::Scheduler&>(avoider) : uniform;
    rng::Rng rng(7);
    sim::EngineConfig cfg;
    cfg.max_steps = 10'000;
    benchmark::DoNotOptimize(sim::run(*algo, t, sched, rng, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EngineSteps)
    ->ArgsProduct({{4, 16, 64}, {0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Args: ring size, explorer threads (0 = hardware concurrency).
void BM_MdpExplore(benchmark::State& state) {
  const auto algo = algos::make_algorithm("lr1");
  const auto t = graph::classic_ring(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const auto model = mdp::explore(*algo, t, {.threads = threads, .max_states = 2'000'000});
    benchmark::DoNotOptimize(model.num_states());
    state.counters["states"] = static_cast<double>(model.num_states());
  }
  state.SetLabel("complete exploration");
}
BENCHMARK(BM_MdpExplore)
    ->ArgsProduct({{3, 4}, {1, 0}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One parallel_for call over 4 trivial indices at 4 threads: the pool's
// per-call cost (it spawns and joins OS threads on every call), which is
// why the explorer interns levels below a size cutoff inline.
void BM_ParallelForCall(benchmark::State& state) {
  std::array<std::uint64_t, 4> slots{};
  for (auto _ : state) {
    common::parallel_for(slots.size(), 4, [&](std::uint32_t i) { slots[i] += i; });
    benchmark::DoNotOptimize(slots.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ParallelForCall)->Unit(benchmark::kMicrosecond)->UseRealTime();

// The pool's per-index cost: one parallel_for over 4M trivial indices.
// Args: grain (1 claims one index per block, the per-index form's shape;
// 4,096 claims blocks), threads (0 = hardware concurrency). At threads 1
// the call runs body(0, total) inline, whatever the grain.
// BM_SerialIndices is the plain loop over the same body.
constexpr std::size_t kTrivialIndices = 4'000'000;

void trivial_body(std::vector<std::uint32_t>& sink, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    sink[i] = sink[i] * 2654435761u + static_cast<std::uint32_t>(i);
  }
}

void BM_ParallelForIndices(benchmark::State& state) {
  const auto grain = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  std::vector<std::uint32_t> sink(kTrivialIndices);
  for (auto _ : state) {
    common::parallel_for(kTrivialIndices, grain, threads,
                         [&](std::size_t lo, std::size_t hi) { trivial_body(sink, lo, hi); });
    benchmark::DoNotOptimize(sink.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kTrivialIndices));
}
BENCHMARK(BM_ParallelForIndices)
    ->ArgNames({"grain", "threads"})
    ->ArgsProduct({{1, 4'096}, {1, 0}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SerialIndices(benchmark::State& state) {
  std::vector<std::uint32_t> sink(kTrivialIndices);
  for (auto _ : state) {
    trivial_body(sink, 0, kTrivialIndices);
    benchmark::DoNotOptimize(sink.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kTrivialIndices));
}
BENCHMARK(BM_SerialIndices)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FairProgressCheck(benchmark::State& state) {
  const auto algo = algos::make_algorithm("lr1");
  const auto t = graph::parallel_arcs(3);
  const auto model = mdp::explore(*algo, t, {.max_states = 1'000'000});
  for (auto _ : state) {
    benchmark::DoNotOptimize(mdp::check_fair_progress(model));
  }
}
BENCHMARK(BM_FairProgressCheck)->Unit(benchmark::kMicrosecond);

// The worklist MEC refinement on lr2/parallel(4) (complete, ~0.5M
// candidate states). First arg: avoid set, 0 (every state is a candidate:
// the full-model decomposition quant's p_trap needs) or 1 (all
// philosophers: the progress verdict's meal-free fragment). Second arg:
// the model's representation, 0 a contiguous Model, 1 an in-memory
// store::ChunkedModel, 2 a spilled one (default chunk size, spill file
// under the system temp dir) — the read-path gap ROADMAP item 6 weighs.
mdp::store::ChunkedModel explore_chunked(bool spill) {
  const auto algo = algos::make_algorithm("lr2");
  mdp::store::StoreOptions options;
  options.spill = spill;
  options.dir = (std::filesystem::temp_directory_path() /
                 ("gdp_bench_micro_" + std::to_string(::getpid())))
                    .string();
  auto model = mdp::store::explore(*algo, graph::parallel_arcs(4), options,
                                   {.max_states = 3'000'000});
  std::filesystem::remove_all(options.dir);  // a live mapping outlives its file
  return model;
}

void BM_MecDecompose(benchmark::State& state) {
  const std::uint64_t avoid = state.range(0) == 0 ? 0 : ~std::uint64_t{0};
  auto run = [&](const auto& model) {
    for (auto _ : state) {
      // Unqualified: argument-dependent lookup picks mdp:: or mdp::store::.
      const auto mecs = maximal_end_components(model, avoid);
      benchmark::DoNotOptimize(mecs.size());
      state.counters["mecs"] = static_cast<double>(mecs.size());
    }
    state.counters["states"] = static_cast<double>(model.num_states());
  };
  switch (state.range(1)) {
    case 0: {
      static const mdp::Model model = [] {
        const auto algo = algos::make_algorithm("lr2");
        return mdp::explore(*algo, graph::parallel_arcs(4), {.max_states = 3'000'000});
      }();
      run(model);
      break;
    }
    case 1: {
      static const mdp::store::ChunkedModel model = explore_chunked(false);
      run(model);
      break;
    }
    default: {
      static const mdp::store::ChunkedModel model = explore_chunked(true);
      run(model);
      break;
    }
  }
}
BENCHMARK(BM_MecDecompose)
    ->ArgsProduct({{0, 1}, {0, 1, 2}})
    ->ArgNames({"avoid", "repr"})
    ->Unit(benchmark::kMillisecond);

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
