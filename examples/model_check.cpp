// Model-check an algorithm on a small topology: decides the paper's
// progress and lockout-freedom properties under every fair adversary.
// Exploration and the quant sweeps run on the shared pool — results are
// bit-identical at every thread count.
//
//   $ ./model_check [algorithm] [topology] [max_states] [threads]
//
// Topologies: ring3 ring4 parallel3 parallel4 fig1a pendant3 chord4 theta112
#include <cstdio>
#include <optional>
#include <string>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/mdp/witness.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"
#include "gdp/sim/engine.hpp"

using namespace gdp;

namespace {

constexpr const char* kTopologies = "ring3 ring4 parallel3 parallel4 fig1a pendant3 chord4 theta112";

/// The topology named `name`, or nullopt for a name not in kTopologies.
std::optional<graph::Topology> by_name(const std::string& name) {
  if (name == "ring3") return graph::classic_ring(3);
  if (name == "ring4") return graph::classic_ring(4);
  if (name == "parallel3") return graph::parallel_arcs(3);
  if (name == "parallel4") return graph::parallel_arcs(4);
  if (name == "fig1a") return graph::fig1a();
  if (name == "pendant3") return graph::ring_with_pendant(3);
  if (name == "chord4") return graph::ring_with_chord(4);
  if (name == "theta112") return graph::theta(1, 1, 2);
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string algo_name = argc > 1 ? argv[1] : "lr1";
  const std::string topo_name = argc > 2 ? argv[2] : "parallel3";

  mdp::CheckOptions opts;
  std::size_t max_states = 2'000'000;
  try {
    if (argc > 3) max_states = std::stoull(argv[3]);
    if (argc > 4) opts.threads = std::stoi(argv[4]);
  } catch (const std::exception&) {
    opts.threads = -1;  // fall through to the usage check
  }
  if (opts.threads < 0) {
    std::fprintf(stderr, "usage: %s [algo] [topo] [max_states] [threads >= 0, 0 = hardware]\n",
                 argv[0]);
    return 1;
  }
  opts.max_states = max_states;

  const std::optional<graph::Topology> topology = by_name(topo_name);
  if (!topology) {
    std::fprintf(stderr, "unknown topology '%s'; known: %s\n", topo_name.c_str(), kTopologies);
    return 1;
  }
  const graph::Topology& t = *topology;
  const auto algo = algos::make_algorithm(algo_name);

  std::printf("Model checking %s on %s (state cap %zu, threads %d [0=hw])...\n\n",
              algo_name.c_str(), t.name().c_str(), max_states, opts.threads);
  mdp::StateIndex index;
  const auto model = mdp::explore_indexed(*algo, t, index, opts);
  std::printf("explored %zu states (%zu state-action rows)%s\n", model.num_states(),
              model.num_rows(), model.truncated() ? " [TRUNCATED]" : "");

  // Certified two-sided bounds over every fair adversary (interval
  // iteration on the MEC quotient; see gdp/mdp/quant/quant.hpp). The
  // analysis carries the progress verdict it decides on the way.
  mdp::quant::QuantOptions qopts;
  qopts.threads = opts.threads;
  qopts.max_states = max_states;
  const auto quant = mdp::quant::analyze(model, ~std::uint64_t{0}, qopts);
  const auto& progress = quant.progress;
  std::printf("\nProgress (T --fair-->_1 E):\n  %s\n", progress.summary().c_str());

  std::printf("\nLockout-freedom (T_i --fair-->_1 E_i):\n");
  for (PhilId v = 0; v < t.num_phils(); ++v) {
    const auto lf = mdp::check_lockout_freedom(model, v);
    std::printf("  P%d: %s\n", v, lf.summary().c_str());
  }

  auto interval = [](const mdp::quant::Interval& iv) -> std::string {
    char buf[64];
    if (iv.lower == iv.upper && !iv.finite()) return "inf (certified)";
    if (!iv.finite()) {
      std::snprintf(buf, sizeof buf, "[%.6f, inf)", iv.lower);
      return buf;
    }
    std::snprintf(buf, sizeof buf, "[%.6f, %.6f]", iv.lower, iv.upper);
    return buf;
  };
  std::printf("\nQuantitative bounds (all fair adversaries, gdp::mdp::quant):\n");
  std::printf("  certainty                   = %s\n", mdp::quant::to_string(quant.certainty));
  std::printf("  Pmin(reach eating)          = %s\n", interval(quant.p_min).c_str());
  std::printf("  Pmax(reach eating)          = %s\n", interval(quant.p_max).c_str());
  std::printf("  Pmax(reach fair trap)       = %s\n", interval(quant.p_trap).c_str());
  std::printf("  E[steps to meal, best]      = %s\n", interval(quant.e_min).c_str());
  std::printf("  E[productive steps, worst]  = %s\n", interval(quant.e_max).c_str());

  // The uniform scheduler is one fair adversary: its chain goes through the
  // same certified engine, viewed as an MDP with one action per state.
  const auto uniform = mdp::quant::analyze_uniform(model, qopts);
  std::printf("\nUniform fair scheduler (gdp::mdp::quant::analyze_uniform):\n");
  std::printf("  certainty              = %s\n", mdp::quant::to_string(uniform.certainty));
  std::printf("  P(reach eating)        = %s\n", interval(uniform.p_min).c_str());
  std::printf("  E[steps to first meal] = %s\n", interval(uniform.e_min).c_str());

  // If the checker found a fair no-progress trap, execute it.
  if (progress.witness) {
    std::printf("\nSynthesizing the witness adversary and running it live...\n");
    mdp::WitnessScheduler sched(model, index, *progress.witness);
    rng::Rng rng(7);
    sim::EngineConfig cfg;
    cfg.max_steps = 30'000;
    const auto r = sim::run(*algo, t, sched, rng, cfg);
    std::printf("  entered the trap: %s; steps inside: %llu; meals before/inside: %llu\n",
                sched.entered_component() ? "yes" : "no (unlucky draws — rerun)",
                static_cast<unsigned long long>(sched.steps_inside()),
                static_cast<unsigned long long>(r.total_meals));
  }

  // GDP_OBS=1 in the environment adds a run report and GDP_OBS_TIMELINE=1 a
  // Chrome trace-event timeline; with both off (the default, and what the
  // golden-output CI diff runs) stdout is unchanged.
  if (obs::enabled()) {
    const std::string path = "BENCH_model_check.json";
    if (obs::write_report(path, "model_check",
                          {{"algorithm", algo_name}, {"topology", topo_name}})) {
      std::printf("\nreport: %s (gdp_obs_schema %d)\n", path.c_str(), obs::kReportSchema);
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  }
  if (obs::timeline::enabled()) {
    const std::string trace_path = "TRACE_model_check.json";
    if (obs::timeline::write_trace(trace_path, "model_check")) {
      std::printf("\ntrace: %s (chrome trace-event json)\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", trace_path.c_str());
    }
  }
  return 0;
}
