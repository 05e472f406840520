// verifybench — runs ONE verification workload in a fresh process and
// reports what it computed, for verifybench/run.py to check and time.
//
//   verifybench <theorem2_quant|lockout_matrix|store_out_of_core>
//               --threads N [--seed S] [--spill-dir DIR] [--trace] [--oneshot]
//   verifybench pool --threads N
//
// Protocol on stdout. A workload run prints "READY" immediately before its
// first layer call and "DONE" as soon as its verdict table is complete; the
// parent timestamps both lines as they arrive, so set-up and wall time are
// measured outside this process and no clock is read here in untraced runs.
// The last line is one JSON object:
//
//   {"outputs": {...}, "trace": {...}}
//
// "outputs" holds every value the workload pins (state counts, verdicts,
// certified intervals as [lower, upper], sweep counts, fingerprints); run.py
// compares them against verifybench/expected.json. "trace" is present only
// with --trace: outside timers around every call into a layer's public
// functions (each verdict split into reachability, MEC decomposition and
// verdict assembly), the per-layer counts, and a snapshot of the obs
// registry. Untraced runs keep every obs plane off.
//
// --oneshot additionally explores store_out_of_core's final cap in one go,
// so the resumed model's fingerprint can be compared with a one-shot run
// when expected.json is re-blessed.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/exp/runner.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress_impl.hpp"
#include "gdp/mdp/par/par.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/obs/obs.hpp"

using namespace gdp;

namespace {

// --- workload sizes --------------------------------------------------------

// theorem2_quant: the bench_thm2_theta (a) grid without theta(1,1,2): lr2
// and gdp2 on ring(3), parallel(3) and parallel(4) run complete; both run
// capped on ring_pendant(3), so the truncation path (kUnknownTruncated,
// Certainty::kTruncated) stays exercised.
constexpr std::size_t kThm2Cap = 3'000'000;
constexpr std::size_t kThm2PendantCap = 50'000;

// lockout_matrix: the bench_mdp_verdicts grid. Every ring(3) and
// parallel(3) model stays under kLockoutCap (gdp2 on ring(3), the Table 4
// erratum row, has 169,352 states); ring_pendant(3) runs capped.
constexpr std::size_t kLockoutCap = 200'000;
constexpr std::size_t kLockoutPendantCap = 100'000;
/// The uniform-scheduler sampling cross-check; its seed is --seed.
constexpr int kCampaignTrials = 16;
constexpr std::uint64_t kCampaignMaxSteps = 20'000;

// store_out_of_core: gdp2 on ring_with_chord(4) (~6M states uncapped).
constexpr std::size_t kStoreFirstCap = 150'000;
constexpr std::size_t kStoreFinalCap = 300'000;
constexpr std::size_t kStoreChunkStates = 8'192;
constexpr std::size_t kStoreResidentChunks = 8;

constexpr std::uint64_t kAll = ~std::uint64_t{0};

// --- JSON output -----------------------------------------------------------

std::string num(double v) {
  if (v == std::numeric_limits<double>::infinity()) return "\"inf\"";
  if (v == -std::numeric_limits<double>::infinity()) return "\"-inf\"";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return quoted(buf);
}

/// An ordered JSON object built from already-encoded values.
class Object {
 public:
  void put(const std::string& key, std::string encoded) { fields_[key] = std::move(encoded); }
  void put_u64(const std::string& key, std::uint64_t v) { put(key, std::to_string(v)); }
  void put_str(const std::string& key, const std::string& v) { put(key, quoted(v)); }
  void put_interval(const std::string& key, const mdp::quant::Interval& iv) {
    put(key, "[" + num(iv.lower) + ", " + num(iv.upper) + "]");
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [k, v] : fields_) {
      if (out.size() > 1) out += ", ";
      out += quoted(k) + ": " + v;
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::string> fields_;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// --- the outside timers ----------------------------------------------------

/// Per-layer outside timers. Off (untraced) it only forwards calls.
class Ledger {
 public:
  explicit Ledger(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Brackets the verdict table: first layer call to finished table.
  void start() { wall_.restart(); }
  void stop() { wall_s_ = wall_.seconds(); }

  template <class F>
  auto time(const std::string& layer, F&& fn) {
    if (!on_) return fn();
    obs::Stopwatch sw;
    auto result = fn();
    Timer& timer = layers_[layer];
    timer.seconds += sw.seconds();
    timer.calls += 1;
    return result;
  }

  void add(const std::string& count, double v) {
    if (on_) counts_[count] += v;
  }

  Object json() const {
    Object layers;
    for (const auto& [name, timer] : layers_) {
      layers.put(name, "{\"s\": " + num(timer.seconds) +
                           ", \"calls\": " + std::to_string(timer.calls) + "}");
    }
    Object counts;
    for (const auto& [name, v] : counts_) counts.put(name, num(v));
    Object out;
    out.put("wall_s", num(wall_s_));
    out.put("layers", layers.json());
    out.put("counts", counts.json());
    return out;
  }

 private:
  bool on_;
  obs::Stopwatch wall_;
  double wall_s_ = 0.0;
  struct Timer {
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Timer> layers_;
  std::map<std::string, double> counts_;
};

// --- layer calls -------------------------------------------------------------

std::vector<bool> reach(const mdp::Model& m, const mdp::par::CheckOptions& o) {
  return mdp::par::reachable_states(m, o);
}
std::vector<bool> reach(const mdp::store::ChunkedModel& m, const mdp::par::CheckOptions& o) {
  return mdp::store::reachable_states(m, o);
}
std::vector<mdp::EndComponent> mecs(const mdp::Model& m, std::uint64_t mask,
                                    const mdp::par::CheckOptions& o) {
  return mdp::par::maximal_end_components(m, mask, o);
}
std::vector<mdp::EndComponent> mecs(const mdp::store::ChunkedModel& m, std::uint64_t mask,
                                    const mdp::par::CheckOptions& o) {
  return mdp::store::maximal_end_components(m, mask, o);
}
mdp::FairProgressResult check(const mdp::Model& m, std::uint64_t mask,
                              const mdp::par::CheckOptions& o) {
  return mdp::par::check_fair_progress(m, mask, o);
}
mdp::FairProgressResult check(const mdp::store::ChunkedModel& m, std::uint64_t mask,
                              const mdp::par::CheckOptions& o) {
  return mdp::store::check_fair_progress(m, mask, o);
}

/// A progress / lockout verdict. Untraced it is the one public call; traced
/// it runs the same three parts that call composes (reachability, MEC
/// decomposition, verdict assembly), each under its own timer.
template <class ModelT>
mdp::FairProgressResult verdict(Ledger& ledger, const ModelT& m, std::uint64_t mask,
                                const mdp::par::CheckOptions& o) {
  if (!ledger.on()) return check(m, mask, o);
  const auto reached = ledger.time("reach", [&] { return reach(m, o); });
  const auto components = ledger.time("mec", [&] { return mecs(m, mask, o); });
  ledger.add("mec.components", static_cast<double>(components.size()));
  ledger.add("verdict.calls", 1);
  return ledger.time("verdict.assembly", [&] {
    return mdp::detail::verdict_from_mecs_t(m, mask, components, reached);
  });
}

std::string verdict_name(mdp::Verdict v) {
  switch (v) {
    case mdp::Verdict::kProgressCertain: return "progress";
    case mdp::Verdict::kProgressFails: return "fails";
    default: return "unknown";
  }
}

mdp::Model explore(Ledger& ledger, const algos::Algorithm& algo, const graph::Topology& t,
                   const mdp::par::CheckOptions& o) {
  auto model = ledger.time("explore", [&] { return mdp::par::explore(algo, t, o); });
  ledger.add("explore.states", static_cast<double>(model.num_states()));
  return model;
}

void put_quant(Object& out, const std::string& key, const mdp::quant::QuantResult& q) {
  out.put_str(key + ".certainty", mdp::quant::to_string(q.certainty));
  out.put_u64(key + ".quotient_nodes", q.num_quotient_nodes);
  out.put_interval(key + ".p_min", q.p_min);
  out.put_interval(key + ".p_max", q.p_max);
  out.put_interval(key + ".p_trap", q.p_trap);
  out.put_interval(key + ".e_min", q.e_min);
  out.put_interval(key + ".e_max", q.e_max);
  out.put_u64(key + ".sweeps.p_max", q.stats.p_max_sweeps);
  out.put_u64(key + ".sweeps.p_min", q.stats.p_min_sweeps);
  out.put_u64(key + ".sweeps.e_min", q.stats.e_min_sweeps);
  out.put_u64(key + ".sweeps.e_max", q.stats.e_max_sweeps);
  out.put_u64(key + ".sweeps.p_trap", q.stats.p_trap_sweeps);
  out.put_u64(key + ".stalled_phases", q.stats.stalled_phases);
}

// --- workloads -------------------------------------------------------------

struct Args {
  std::string workload;
  int threads = 1;
  std::uint64_t seed = 0;
  std::string spill_dir;
  bool trace = false;
  bool oneshot = false;
};

/// Announces the end of set-up.
void ready(Ledger& ledger) {
  std::puts("READY");
  std::fflush(stdout);
  ledger.start();
}

void done(Ledger& ledger) {
  ledger.stop();
  std::puts("DONE");
  std::fflush(stdout);
}

void theorem2_quant(const Args& args, Ledger& ledger, Object& out) {
  const graph::Topology cases[] = {graph::classic_ring(3), graph::ring_with_pendant(3),
                                   graph::parallel_arcs(3), graph::parallel_arcs(4)};
  const std::string pendant = graph::ring_with_pendant(3).name();
  const auto lr2 = algos::make_algorithm("lr2");
  const auto gdp2 = algos::make_algorithm("gdp2");
  ready(ledger);
  for (const auto& t : cases) {
    for (const auto* algo : {lr2.get(), gdp2.get()}) {
      mdp::par::CheckOptions opts;
      opts.threads = args.threads;
      opts.max_states = t.name() == pendant ? kThm2PendantCap : kThm2Cap;
      const std::string key = algo->name() + "/" + t.name();
      const auto model = explore(ledger, *algo, t, opts);
      const auto v = verdict(ledger, model, kAll, opts);
      mdp::quant::QuantOptions qopts;
      qopts.threads = opts.threads;
      qopts.max_states = opts.max_states;
      const auto q = ledger.time("quant", [&] { return mdp::quant::analyze(model, kAll, qopts); });
      out.put_u64(key + ".states", model.num_states());
      out.put_str(key + ".verdict", verdict_name(v.verdict));
      put_quant(out, key, q);
    }
  }
  done(ledger);
}

void lockout_matrix(const Args& args, Ledger& ledger, Object& out) {
  const std::vector<graph::Topology> topologies = {
      graph::classic_ring(3), graph::parallel_arcs(3), graph::ring_with_pendant(3)};
  const std::string pendant = topologies.back().name();
  const std::vector<std::string> names = {"lr1", "lr2", "gdp1", "gdp2", "gdp2c"};
  std::vector<std::unique_ptr<algos::Algorithm>> algorithms;
  for (const auto& name : names) algorithms.push_back(algos::make_algorithm(name));
  exp::CampaignSpec sampling;
  sampling.name = "lockout-matrix-sampling";
  sampling.seed = args.seed;
  sampling.trials = kCampaignTrials;
  sampling.topologies = topologies;
  sampling.algorithms = names;
  sampling.schedulers = {exp::uniform()};
  sampling.engine.max_steps = kCampaignMaxSteps;
  ready(ledger);

  for (std::size_t a = 0; a < names.size(); ++a) {
    for (const auto& t : topologies) {
      mdp::par::CheckOptions opts;
      opts.threads = args.threads;
      opts.max_states = t.name() == pendant ? kLockoutPendantCap : kLockoutCap;
      const std::string key = names[a] + "/" + t.name();
      const auto model = explore(ledger, *algorithms[a], t, opts);
      const auto progress = verdict(ledger, model, kAll, opts);
      std::string lockout;
      for (PhilId v = 0; v < t.num_phils(); ++v) {
        const auto lf = verdict(ledger, model, std::uint64_t{1} << v, opts);
        lockout += verdict_name(lf.verdict)[0];  // p / f / u per philosopher
      }
      out.put_u64(key + ".states", model.num_states());
      out.put_str(key + ".verdict", verdict_name(progress.verdict));
      out.put_str(key + ".lockout", lockout);
    }
  }
  const auto sampled =
      ledger.time("campaign", [&] { return exp::run_campaign(sampling, args.threads); });
  std::uint64_t trials = 0, deadlocks = 0;
  for (const auto& cell : sampled.cells) {
    trials += cell.trials();
    deadlocks += cell.deadlocks();
  }
  ledger.add("campaign.trials", static_cast<double>(trials));
  done(ledger);
  out.put_u64("campaign.trials", trials);
  out.put_u64("campaign.deadlocks", deadlocks);
  out.put("campaign.fingerprint", hex(fnv1a(sampled.json())));
}

void store_out_of_core(const Args& args, Ledger& ledger, Object& out) {
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::ring_with_chord(4);
  mdp::store::StoreOptions sopts;
  sopts.spill = true;
  sopts.dir = args.spill_dir;
  sopts.chunk_states = kStoreChunkStates;
  mdp::par::CheckOptions first_opts;
  first_opts.threads = args.threads;
  first_opts.max_states = kStoreFirstCap;
  mdp::par::CheckOptions final_opts = first_opts;
  final_opts.max_states = kStoreFinalCap;
  mdp::store::StoreOptions budget = sopts;
  budget.max_resident_chunks = kStoreResidentChunks;
  const std::string first_path = args.spill_dir + "/first.ckpt";
  const std::string final_path = args.spill_dir + "/final.ckpt";
  ready(ledger);

  std::size_t spilled = 0;
  {
    const auto first =
        ledger.time("explore", [&] { return mdp::store::explore(*algo, t, sopts, first_opts); });
    ledger.add("explore.states", static_cast<double>(first.num_states()));
    spilled += first.spilled_bytes();
    out.put_u64("first.states", first.num_states());
    ledger.time("store.save", [&] {
      first.save_checkpoint(first_path);
      return 0;
    });
  }
  {
    const auto loaded = ledger.time("store.load", [&] {
      return mdp::store::ChunkedModel::load_checkpoint(*algo, t, first_path, sopts);
    });
    const auto resumed = ledger.time("store.resume", [&] {
      return mdp::store::resume(*algo, t, loaded, sopts, final_opts);
    });
    ledger.add("explore.states", static_cast<double>(resumed.num_states()));
    spilled += resumed.spilled_bytes();
    const auto fingerprint =
        ledger.time("store.fingerprint", [&] { return resumed.fingerprint(); });
    ledger.time("store.save", [&] {
      resumed.save_checkpoint(final_path);
      return 0;
    });
    out.put_u64("resumed.states", resumed.num_states());
    out.put_u64("resumed.chunks", resumed.num_chunks());
    out.put_u64("resumed.spill_bytes", resumed.spilled_bytes());
    out.put("resumed.fingerprint", hex(fingerprint));
  }
  const auto reloaded = ledger.time("store.load", [&] {
    return mdp::store::ChunkedModel::load_checkpoint(*algo, t, final_path, budget);
  });
  // Timed as a whole too: its parts land under reach / mec / assembly.
  const auto v = ledger.time("store.bounded_verdict",
                             [&] { return verdict(ledger, reloaded, kAll, final_opts); });
  done(ledger);
  // Within the residency budget: never more hot bytes than the budget's
  // worth of the largest chunks.
  std::size_t largest = 0;
  for (std::size_t i = 0; i < reloaded.num_chunks(); ++i) {
    largest = std::max(largest, reloaded.chunk(i).payload_bytes());
  }
  ledger.add("store.spill_bytes", static_cast<double>(spilled));
  ledger.add("store.peak_resident_bytes", static_cast<double>(reloaded.peak_resident_bytes()));
  out.put_str("reloaded.verdict", verdict_name(v.verdict));
  out.put_u64("reloaded.mecs", v.num_mecs);
  out.put_u64("reloaded.within_budget",
              reloaded.peak_resident_bytes() <= kStoreResidentChunks * largest ? 1 : 0);

  if (args.oneshot) {
    const auto oneshot = mdp::store::explore(*algo, t, sopts, final_opts);
    out.put("oneshot.fingerprint", hex(oneshot.fingerprint()));
  }
}

/// The pool probe: 1,000 parallel_for calls over 4 trivial indices, then
/// one 4M-index loop on the pool against the same body in a plain loop.
/// Each figure is the median of kRepeats measurements.
void pool_probe(const Args& args, Object& out) {
  constexpr int kRepeats = 5;
  constexpr int kCalls = 1'000;
  constexpr std::uint32_t kIndices = 4'000'000;
  std::vector<std::uint32_t> sink(kIndices);
  const std::function<void(std::uint32_t)> body = [&](std::uint32_t i) {
    sink[i] = sink[i] * 2654435761u + i;
  };
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<double> call_us, loop_s, serial_s;
  for (int r = 0; r < kRepeats; ++r) {
    obs::Stopwatch calls;
    for (int c = 0; c < kCalls; ++c) common::parallel_for(4, args.threads, body);
    call_us.push_back(calls.seconds() * 1e6 / kCalls);
    obs::Stopwatch loop;
    common::parallel_for(kIndices, args.threads, body);
    loop_s.push_back(loop.seconds());
    obs::Stopwatch serial;
    for (std::uint32_t i = 0; i < kIndices; ++i) body(i);
    serial_s.push_back(serial.seconds());
  }
  std::uint64_t check = 0;
  for (const std::uint32_t v : sink) check += v;
  out.put("call_overhead_us", num(median(call_us)));
  out.put("loop4m_s", num(median(loop_s)));
  out.put("serial4m_s", num(median(serial_s)));
  out.put_u64("sink", check);
}

Object registry_json() {
  const auto snap = obs::Registry::global().snapshot();
  Object counters, spans;
  for (const auto* list : {&snap.counters, &snap.timing_counters}) {
    for (const auto& m : *list) counters.put_u64(m.name, m.value);
  }
  for (const auto& s : snap.spans) {
    spans.put(s.name, "{\"count\": " + std::to_string(s.count) +
                          ", \"s\": " + num(static_cast<double>(s.total_ns) * 1e-9) + "}");
  }
  Object out;
  out.put("counters", counters.json());
  out.put("spans", spans.json());
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <theorem2_quant|lockout_matrix|store_out_of_core|pool> --threads N "
               "[--seed S] [--spill-dir DIR] [--trace] [--oneshot]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--threads" && has_value) {
      args.threads = std::atoi(argv[++i]);
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--spill-dir" && has_value) {
      args.spill_dir = argv[++i];
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--oneshot") {
      args.oneshot = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (args.threads < 1) return usage(argv[0]);
  // Registry on only for traced runs; the timeline and progress planes stay
  // off everywhere (run.py also clears GDP_OBS* in the environment).
  obs::set_enabled(args.trace);

  Object out;
  if (args.workload == "pool") {
    pool_probe(args, out);
    std::printf("{\"outputs\": %s}\n", out.json().c_str());
    return 0;
  }
  using Workload = void (*)(const Args&, Ledger&, Object&);
  const std::map<std::string, Workload> workloads = {{"theorem2_quant", theorem2_quant},
                                                     {"lockout_matrix", lockout_matrix},
                                                     {"store_out_of_core", store_out_of_core}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return usage(argv[0]);
  if (args.workload == "store_out_of_core" && args.spill_dir.empty()) return usage(argv[0]);

  Ledger ledger(args.trace);
  it->second(args, ledger, out);
  std::string result = "{\"outputs\": " + out.json();
  if (args.trace) {
    Object trace = ledger.json();
    trace.put("registry", registry_json().json());
    result += ", \"trace\": " + trace.json();
  }
  std::printf("%s}\n", result.c_str());
  return 0;
}
