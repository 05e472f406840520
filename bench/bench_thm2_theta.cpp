// E4 — Theorem 2: two nodes joined by three paths defeat LR2 as well.
//
// Paper (Theorem 2 + Figure 3): with a ring H plus a third path P between
// two of its nodes, a fair scheduler keeps the philosophers of H and P from
// progressing with positive probability; the guest books stay empty so
// Cond never fires ("fork.g remains forever empty").
//
// Instruments: the model checker on theta instances (the minimal one is
// three parallel arcs) and the TrapFig1a adversary on fig1a (which
// satisfies the Theorem 2 premise) run against LR2. Expected shape: LR2
// fails exactly on the premise graphs, survives the Theorem-1-only graph
// (ring+pendant), and GDP2 is certified everywhere small.
#include "bench_util.hpp"

#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>

#include "gdp/common/strings.hpp"
#include "gdp/exp/runner.hpp"
#include "gdp/graph/algorithms.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/mdp/witness.hpp"
#include "gdp/sim/state.hpp"

using namespace gdp;

int main(int argc, char** argv) {
  // Model-checker worker threads (0 = hardware concurrency); lets the
  // speedup of the pool-backed layers be measured: ./bench_thm2_theta 1 vs N.
  // The optional second argument picks sections, e.g. "d" runs only the
  // store-spill exploration (what `ci.sh bench-smoke` exercises).
  const int threads = argc > 1 ? std::atoi(argv[1]) : 0;
  const std::string sections = argc > 2 ? argv[2] : "abcd";
  if (threads < 0 || sections.find_first_not_of("abcd") != std::string::npos) {
    std::fprintf(stderr, "usage: %s [threads >= 0, 0 = hardware] [sections from {a,b,c,d}]\n",
                 argv[0]);
    return 1;
  }
  const auto want = [&](char s) { return sections.find(s) != std::string::npos; };
  bench::enable_obs();

  bench::banner("E4: Theorem 2 (theta graphs vs LR2)",
                "Theorem 2 and Figure 3",
                "LR2 fails on (and only on) graphs with two nodes joined by >= 3 paths");
  mdp::CheckOptions opts;
  opts.threads = threads;
  opts.max_states = 3'000'000;

  if (want('a')) {
  std::printf("(a) model-checked verdicts + quantitative bounds (gdp::mdp + gdp::mdp::quant,\n"
              "    threads=%d [0=hw]):\n", threads);
  stats::Table verdicts({"topology", "thm2 premise", "lr2 verdict", "lr2 Pmin", "lr2 E[max]",
                         "gdp2 verdict", "gdp2 Pmin", "gdp2 E[max]"});
  const graph::Topology cases[] = {graph::classic_ring(3), graph::ring_with_pendant(3),
                                   graph::parallel_arcs(3), graph::parallel_arcs(4),
                                   graph::theta(1, 1, 2)};
  obs::Span model_check_span("bench.thm2_verdicts");
  const obs::Stopwatch model_check_clock;
  for (const auto& t : cases) {
    const bool premise = graph::thm2_premise(t).has_value();
    auto verdict_str = [](const mdp::FairProgressResult& r) {
      if (r.verdict == mdp::Verdict::kUnknownTruncated) return std::string("unknown");
      return std::string(r.holds() ? "progress" : "FAILS");
    };
    auto prob_str = [](const mdp::quant::Interval& iv) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f", (iv.lower + iv.upper) / 2);
      return std::string(buf);
    };
    auto time_str = [](const mdp::quant::Interval& iv) {
      if (!iv.finite()) return std::string("inf");
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1f", (iv.lower + iv.upper) / 2);
      return std::string(buf);
    };
    std::vector<std::string> row{t.name(), premise ? "yes" : "no"};
    for (const char* name : {"lr2", "gdp2"}) {
      const auto algo = algos::make_algorithm(name);
      const auto model = mdp::explore(*algo, t, opts);
      mdp::quant::QuantOptions qopts;
      qopts.threads = opts.threads;
      qopts.max_states = opts.max_states;
      const auto q = mdp::quant::analyze(model, ~std::uint64_t{0}, qopts);
      row.push_back(verdict_str(q.progress));
      row.push_back(model.truncated() ? "unknown" : prob_str(q.p_min));
      row.push_back(model.truncated() ? "unknown" : time_str(q.e_max));
      // Machine-readable quantitative verdicts live in BENCH_thm2_theta.json
      // (quant.* counters in the registry report); the deprecated printf
      // "BENCH quant" lines are gone after their one-release grace period.
    }
    verdicts.add_row(row);
  }
  verdicts.print();
  model_check_span.stop();
  std::printf("  model-check + quant phase wall time: %.2fs\n", model_check_clock.seconds());
  }

  if (want('b')) {
  std::printf("\n(b) packed state keys (gdp::mdp::KeyCodec): intern-table + frontier memory:\n");
  stats::Table keys({"model", "states", "B/state packed", "B/state legacy", "ratio",
                     "peak intern bytes (keys+slots)", "frontier B/item", "was (SimState)"});
  struct KeyCase {
    const char* algo;
    graph::Topology t;
  };
  const KeyCase key_cases[] = {{"lr2", graph::parallel_arcs(4)},
                               {"gdp2", graph::classic_ring(3)},
                               {"lr2", graph::parallel_arcs(3)}};
  // Heap footprint of one SimState of this shape — what every frontier item
  // and replay slot carried by value before the explorers switched to
  // decode-on-demand packed keys.
  auto sim_state_bytes = [](const sim::SimState& s) {
    std::size_t b = sizeof(sim::SimState);
    b += s.forks.capacity() * sizeof(sim::ForkState);
    for (const auto& f : s.forks) b += f.use_rank.capacity() * sizeof(std::uint8_t);
    b += s.phils.capacity() * sizeof(sim::PhilState);
    b += s.aux.capacity() * sizeof(std::int32_t);
    return b;
  };
  // The explorer's StateIndex keeps every key once, in its flat id-ordered
  // array (the same array take_model hands the chunked store), plus one
  // 4-byte id slot per hash-table entry; both are thread-invariant.
  for (const KeyCase& kc : key_cases) {
    const auto algo = algos::make_algorithm(kc.algo);
    mdp::StateIndex index;
    const auto model = mdp::explore_indexed(*algo, kc.t, index, opts);
    const auto& codec = index.codec();
    const std::size_t packed = codec.key_bytes();
    const std::size_t legacy = codec.legacy_key_bytes();
    const std::size_t peak_packed = index.key_bytes() + index.slot_bytes();
    const std::size_t peak_legacy = index.size() * legacy + index.slot_bytes();
    // A frontier item is one provisional id plus the packed key (wide
    // layouts spill to a heap block of exactly key_bytes()).
    const std::size_t frontier_item =
        sizeof(std::uint32_t) + sizeof(mdp::PackedKey) +
        (codec.key_words() > mdp::PackedKey::kInlineWords ? codec.key_bytes() : 0);
    const std::size_t frontier_was =
        sizeof(std::uint32_t) + sim_state_bytes(algo->initial_state(kc.t));
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.1fx", static_cast<double>(legacy) / packed);
    keys.add_row({std::string(kc.algo) + "/" + kc.t.name(), std::to_string(model.num_states()),
                  std::to_string(packed), std::to_string(legacy), ratio,
                  std::to_string(peak_packed) + " (was " + std::to_string(peak_legacy) + ")",
                  std::to_string(frontier_item), std::to_string(frontier_was)});
    // Machine-readable line for BENCH json tracking of the memory win.
    std::printf("  BENCH key_bytes model=%s/%s states=%zu packed_bytes_per_state=%zu "
                "legacy_bytes_per_state=%zu peak_intern_bytes=%zu "
                "intern_key_bytes=%zu intern_slot_bytes=%zu frontier_item_bytes=%zu "
                "frontier_item_bytes_legacy=%zu\n",
                kc.algo, kc.t.name().c_str(), model.num_states(), packed, legacy, peak_packed,
                index.key_bytes(), index.slot_bytes(), frontier_item, frontier_was);
  }
  keys.print();
  }

  if (want('c')) {
  std::printf("\n(c) the fig1a trap (nobody eats => Cond vacuous) against LR2:\n");
  constexpr int kTrials = 300;
  exp::CampaignSpec spec;
  spec.name = "thm2-fig1a-trap";
  spec.seed = 60'000;
  spec.trials = kTrials;
  spec.topologies = {graph::fig1a()};
  spec.algorithms = {"lr2"};
  spec.schedulers = {exp::trap_fig1a()};  // probe: trapped and zero meals
  spec.engine.max_steps = 25'000;
  const auto result = exp::run_campaign(spec);
  const auto& trap = result.at(0);
  const auto trapped = trap.probe_hits();
  const auto ci = trap.probe_ci();
  std::printf("  fig1a satisfies the premise (4 edge-disjoint paths between fork pairs)\n");
  std::printf("  LR2 trapped: %llu/%d (%.3f), Wilson 95%% [%.3f, %.3f] — paper bound: positive\n",
              static_cast<unsigned long long>(trapped), kTrials,
              static_cast<double>(trapped) / kTrials, ci.low, ci.high);
  }

  // (d) Capped level-synchronous exploration straight into the chunked
  // store, spill on: a Theorem-2-premise instance far past the in-RAM
  // comfort zone (gdp2 on ring_with_chord(4) runs to ~6M states uncapped)
  // explored to checkpoint-sized caps, then a chunk-native verdict over the
  // spilled chunks under a bounded residency budget. The machine-readable
  // copy is the registry report (BENCH_thm2_theta.json: explore.* / store.*
  // counters — including store.chunk_faults / store.chunk_evictions — and
  // the bench.explore_store span); the deprecated printf "BENCH
  // explore_store" lines are gone after their one-release grace period.
  std::vector<std::pair<std::string, std::string>> meta = {
      {"threads", std::to_string(threads)}, {"sections", sections}};
  if (want('d')) {
    std::printf("\n(d) capped exploration into gdp::mdp::store, spill on (gdp2 on %s):\n",
                graph::ring_with_chord(4).name().c_str());
    const auto algo = algos::make_algorithm("gdp2");
    const auto t = graph::ring_with_chord(4);
    const std::string spill_dir = "bench_thm2_spill";
    stats::Table table({"cap", "states", "states/s", "peak RSS MB", "spill MB"});
    const std::size_t caps[] = {100'000, 1'000'000};
    for (std::size_t i = 0; i < std::size(caps); ++i) {
      mdp::CheckOptions copts;
      copts.threads = threads;
      copts.max_states = caps[i];
      mdp::store::StoreOptions sopts;
      sopts.spill = true;
      sopts.dir = spill_dir;
      obs::Span run_span("bench.explore_store");
      const obs::Stopwatch run_clock;
      const auto chunked = mdp::store::explore(*algo, t, sopts, copts);
      const double seconds = run_clock.seconds();
      run_span.stop();
      // ru_maxrss is KiB on Linux and a process-wide high-water mark
      // (monotone across the caps), not a per-run delta.
      struct rusage usage {};
      ::getrusage(RUSAGE_SELF, &usage);
      const std::size_t peak_rss = static_cast<std::size_t>(usage.ru_maxrss) * 1024;
      const double rate =
          seconds > 0.0 ? static_cast<double>(chunked.num_states()) / seconds : 0.0;
      char rate_s[32], rss_s[32], spill_s[32];
      std::snprintf(rate_s, sizeof rate_s, "%.0f", rate);
      std::snprintf(rss_s, sizeof rss_s, "%.1f", peak_rss / (1024.0 * 1024.0));
      std::snprintf(spill_s, sizeof spill_s, "%.1f",
                    chunked.spilled_bytes() / (1024.0 * 1024.0));
      table.add_row({std::to_string(caps[i]), std::to_string(chunked.num_states()), rate_s,
                     rss_s, spill_s});
      const std::string cap_tag = "cap_" + std::to_string(caps[i]);
      meta.emplace_back(cap_tag + "_states", std::to_string(chunked.num_states()));
      meta.emplace_back(cap_tag + "_spill_bytes", std::to_string(chunked.spilled_bytes()));
      meta.emplace_back(cap_tag + "_peak_rss_bytes", std::to_string(peak_rss));
    }
    table.print();

    // Chunk-native fair-progress verdict over the spilled model under a
    // tight residency budget: the kernels page chunks through an LRU window
    // instead of materializing (store.materializations stays 0 here), which
    // is the whole point of analyzing out-of-core models in place.
    {
      mdp::CheckOptions copts;
      copts.threads = threads;
      copts.max_states = 100'000;
      mdp::store::StoreOptions sopts;
      sopts.spill = true;
      sopts.dir = spill_dir;
      sopts.chunk_states = std::size_t{1} << 13;  // ~14 chunks at this cap
      sopts.max_resident_chunks = 4;              // so the 4-chunk window pages
      const auto bounded = mdp::store::explore(*algo, t, sopts, copts);
      obs::Span verdict_span("bench.store_verdict");
      const obs::Stopwatch verdict_clock;
      const auto verdict = mdp::store::check_fair_progress(bounded, ~std::uint64_t{0});
      const double verdict_s = verdict_clock.seconds();
      verdict_span.stop();
      std::printf("  chunk-native verdict (budget 4 of %zu chunks): %s in %.2fs, "
                  "peak resident %.1f MB of %.1f MB spilled\n",
                  bounded.num_chunks(), mdp::to_string(verdict.verdict), verdict_s,
                  bounded.peak_resident_bytes() / (1024.0 * 1024.0),
                  bounded.spilled_bytes() / (1024.0 * 1024.0));
      meta.emplace_back("store_verdict", mdp::to_string(verdict.verdict));
      meta.emplace_back("store_verdict_peak_resident_bytes",
                        std::to_string(bounded.peak_resident_bytes()));
    }
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);  // the spilled chunks served their purpose
  }

  bench::write_bench_report("thm2_theta", meta);
  return 0;
}
