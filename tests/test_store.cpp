// gdp::mdp::store — the chunked, spillable, checkpointable model store.
//
// The load-bearing suite is the checkpoint/resume determinism matrix: on
// ring / ring-with-chord / parallel-arcs under lr2 and gdp2, at threads
// {1, 2, hw}, explore-to-cap → save_checkpoint → load_checkpoint → resume
// must produce the SAME chunking-independent fingerprint as the one-shot
// run — a capped run is a checkpoint, never a dead end.
//
// The chunk-native verdict matrix is the other load-bearing suite: the
// mdp:: / quant:: kernels instantiated over ChunkedModel must match the
// materialized path bit for bit (and never materialize — the
// "store.materializations" counter is pinned at 0 across the verdict and
// resume paths).
//
// Set GDP_TEST_FORCE_SPILL=1 to run every store built here with spill
// enabled (tiny chunks, file-backed reads); the CI store-spill job does
// this under ASan so mapping lifetimes and chunk seams get sanitized.
// GDP_TEST_CHUNK_STATES / GDP_TEST_MAX_RESIDENT_CHUNKS additionally shrink
// the chunks and bound the resident set (the CI bounded-resident pass).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/obs/obs.hpp"

namespace gdp::mdp::store {
namespace {

bool force_spill() {
  const char* v = std::getenv("GDP_TEST_FORCE_SPILL");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

/// Metric recording on for one scope (counter pins need obs enabled; the
/// suite normally runs without GDP_OBS).
class ScopedObs {
 public:
  ScopedObs() : prev_(obs::enabled()) { obs::set_enabled(true); }
  ~ScopedObs() { obs::set_enabled(prev_); }

 private:
  bool prev_;
};

obs::Counter& materializations_counter() {
  return obs::Registry::global().counter("store.materializations");
}

/// A fresh per-test scratch directory under gtest's temp root, removed on
/// destruction (checkpoints and spilled chunks are same-machine throwaways).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("gdp_store_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best-effort cleanup
  }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::string dir() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

/// Store options for this suite: small chunks so even the small matrix
/// models cross several chunk seams, spill forced via the env knob.
/// GDP_TEST_CHUNK_STATES and GDP_TEST_MAX_RESIDENT_CHUNKS override the
/// chunk size and residency budget suite-wide — the CI bounded-resident
/// spill pass uses them to run every store test under a tight LRU budget.
StoreOptions suite_options(const ScratchDir& scratch, std::size_t chunk_states = 1'024) {
  StoreOptions options;
  options.chunk_states = env_size("GDP_TEST_CHUNK_STATES", chunk_states);
  options.spill = force_spill();
  options.dir = scratch.dir();
  options.max_resident_chunks = env_size("GDP_TEST_MAX_RESIDENT_CHUNKS", 0);
  return options;
}

std::vector<int> thread_counts() {
  std::vector<int> counts = {1, 2};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 2) counts.push_back(hw);
  return counts;
}

/// Element-wise equality of a chunked model against a contiguous Model —
/// every read-API observation, not just the fingerprint.
void expect_matches_model(const ChunkedModel& chunked, const Model& model) {
  ASSERT_EQ(chunked.num_states(), model.num_states());
  ASSERT_EQ(chunked.num_phils(), model.num_phils());
  EXPECT_EQ(chunked.truncated(), model.truncated());
  EXPECT_EQ(chunked.initial(), model.initial());
  for (StateId s = 0; s < model.num_states(); ++s) {
    ASSERT_EQ(chunked.eaters(s), model.eaters(s)) << "state " << s;
    ASSERT_EQ(chunked.frontier(s), model.frontier(s)) << "state " << s;
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [cb, ce] = chunked.row(s, p);
      const auto [mb, me] = model.row(s, p);
      ASSERT_EQ(ce - cb, me - mb) << "row (" << s << ", " << p << ")";
      for (std::ptrdiff_t i = 0; i < ce - cb; ++i) {
        ASSERT_EQ(cb[i].next, mb[i].next) << "row (" << s << ", " << p << ")[" << i << "]";
        ASSERT_EQ(cb[i].prob, mb[i].prob) << "row (" << s << ", " << p << ")[" << i << "]";
      }
    }
  }
}

// --- the checkpoint/resume determinism matrix -----------------------------

struct Combo {
  const char* algo;
  graph::Topology topology;
  std::size_t small_cap;  // the mid-run checkpoint cap (must truncate)
  std::size_t final_cap;  // the one-shot cap (uncapped where tractable)
};

// ring and parallel finish uncapped (complete models: 19k / 169k / 17k /
// 6.5k states); ring_with_chord(4) runs past 5M states uncapped, so both
// the one-shot and the resumed run stop at the same 30k-state level cap —
// pinning that cap-composition itself is deterministic.
std::vector<Combo> matrix() {
  return {
      {"lr2", graph::classic_ring(3), 2'000, 2'000'000},
      {"lr2", graph::ring_with_chord(4), 2'000, 30'000},
      {"lr2", graph::parallel_arcs(3), 2'000, 2'000'000},
      {"gdp2", graph::classic_ring(3), 2'000, 2'000'000},
      {"gdp2", graph::ring_with_chord(4), 2'000, 30'000},
      {"gdp2", graph::parallel_arcs(3), 1'000, 2'000'000},
  };
}

TEST(Store, CheckpointResumeComposesWithOneShot) {
  const ScratchDir scratch("resume");
  for (const Combo& combo : matrix()) {
    const auto algo = algos::make_algorithm(combo.algo);
    std::uint64_t pinned_fp = 0;
    bool have_pin = false;
    for (int threads : thread_counts()) {
      SCOPED_TRACE(std::string(combo.algo) + " on " + combo.topology.name() +
                   " at threads=" + std::to_string(threads));
      CheckOptions final_opts;
      final_opts.threads = threads;
      final_opts.max_states = combo.final_cap;

      const ChunkedModel one_shot =
          explore(*algo, combo.topology, suite_options(scratch), final_opts);

      CheckOptions capped_opts = final_opts;
      capped_opts.max_states = combo.small_cap;
      const ChunkedModel capped =
          explore(*algo, combo.topology, suite_options(scratch), capped_opts);
      ASSERT_TRUE(capped.truncated());
      ASSERT_GE(capped.num_states(), combo.small_cap);

      // Round-trip through the checkpoint file: the loaded model is the
      // saved model (same chunking-independent fingerprint).
      const std::string path = scratch.path("ckpt.gdpstore");
      capped.save_checkpoint(path);
      const ChunkedModel loaded = ChunkedModel::load_checkpoint(*algo, combo.topology, path);
      ASSERT_EQ(loaded.fingerprint(), capped.fingerprint());
      ASSERT_EQ(loaded.num_states(), capped.num_states());
      ASSERT_TRUE(loaded.truncated());

      // Resume from the loaded checkpoint: composes bit-identically with
      // the one-shot run, at this and every other thread count.
      const ChunkedModel resumed =
          resume(*algo, combo.topology, loaded, suite_options(scratch), final_opts);
      EXPECT_EQ(resumed.num_states(), one_shot.num_states());
      EXPECT_EQ(resumed.truncated(), one_shot.truncated());
      EXPECT_EQ(resumed.fingerprint(), one_shot.fingerprint());

      if (!have_pin) {
        pinned_fp = one_shot.fingerprint();
        have_pin = true;
      } else {
        EXPECT_EQ(one_shot.fingerprint(), pinned_fp) << "thread-count dependence";
      }
    }
  }
}

TEST(Store, FingerprintIsChunkingIndependent) {
  const ScratchDir scratch("chunking");
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::classic_ring(3);
  const ChunkedModel base = explore(*algo, t, suite_options(scratch, 64));
  const Model model = base.materialize();
  std::uint64_t fp = 0;
  for (std::size_t chunk_states : {std::size_t{64}, std::size_t{1'000}, std::size_t{1} << 15}) {
    // suite_options may override the size (GDP_TEST_CHUNK_STATES); geometry
    // expectations use whatever size actually applied.
    const StoreOptions options = suite_options(scratch, chunk_states);
    const ChunkedModel rechunked =
        ChunkedModel::from_model(model, base.codec(), base.keys(), options);
    EXPECT_EQ(rechunked.num_chunks(),
              (model.num_states() + options.chunk_states - 1) / options.chunk_states);
    if (fp == 0) fp = rechunked.fingerprint();
    EXPECT_EQ(rechunked.fingerprint(), fp) << "chunk_states=" << chunk_states;
  }
  EXPECT_EQ(base.fingerprint(), fp);
}

// --- spill -----------------------------------------------------------------

TEST(Store, SpillPreservesEveryObservation) {
  const ScratchDir scratch("spill");
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::parallel_arcs(3);

  StoreOptions resident_opts;
  resident_opts.chunk_states = 256;  // 6.5k states -> ~26 chunks, many seams
  ChunkedModel chunked = explore(*algo, t, resident_opts);
  const Model model = chunked.materialize();
  const std::uint64_t fp_resident = chunked.fingerprint();
  ASSERT_GT(chunked.resident_bytes(), 0u);
  ASSERT_EQ(chunked.spilled_bytes(), 0u);

  // Spill every chunk: heap copies dropped, reads now fault pages in from
  // the chunk files — and nothing observable changes.
  StoreOptions spill_opts = resident_opts;
  spill_opts.dir = scratch.dir();
  ChunkedModel spilled = ChunkedModel::from_model(model, chunked.codec(), chunked.keys(),
                                                  spill_opts);
  spilled.spill();
  EXPECT_EQ(spilled.resident_bytes(), 0u);
  EXPECT_GT(spilled.spilled_bytes(), 0u);
  for (std::size_t i = 0; i < spilled.num_chunks(); ++i) {
    EXPECT_TRUE(spilled.chunk(i).spilled()) << "chunk " << i;
  }
  EXPECT_EQ(spilled.fingerprint(), fp_resident);
  expect_matches_model(spilled, model);

  // Keys survive the spill too (the resume path reads them from chunks).
  const std::vector<PackedKey> keys = spilled.keys();
  ASSERT_EQ(keys.size(), model.num_states());
  for (StateId s = 0; s < model.num_states(); ++s) {
    ASSERT_EQ(spilled.key(s), keys[s]) << "state " << s;
  }
}

TEST(Store, SpillAtConstructionMatchesExplicitSpill) {
  const ScratchDir scratch("spill_ctor");
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::parallel_arcs(3);
  StoreOptions options;
  options.chunk_states = 512;
  options.spill = true;
  options.dir = scratch.dir();
  const ChunkedModel spilled = explore(*algo, t, options);
  EXPECT_EQ(spilled.resident_bytes(), 0u);
  EXPECT_GT(spilled.spilled_bytes(), 0u);

  const ChunkedModel resident = explore(*algo, t, StoreOptions{});
  EXPECT_EQ(spilled.fingerprint(), resident.fingerprint());
  expect_matches_model(spilled, resident.materialize());
}

// --- corruption refusal ----------------------------------------------------

TEST(Store, CorruptedCheckpointIsRefused) {
  const ScratchDir scratch("corrupt");
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::classic_ring(3);
  const ChunkedModel model = explore(*algo, t, suite_options(scratch, 512));
  const std::string path = scratch.path("ckpt.gdpstore");
  model.save_checkpoint(path);

  // Pristine file loads.
  EXPECT_EQ(ChunkedModel::load_checkpoint(*algo, t, path).fingerprint(), model.fingerprint());

  // One flipped byte deep in a chunk payload: the chunk fingerprint check
  // turns silent corruption into a refusal.
  const auto size = std::filesystem::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(size - 9));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size - 9));
    f.write(&byte, 1);
  }
  EXPECT_THROW(ChunkedModel::load_checkpoint(*algo, t, path), PreconditionError);

  // A truncated file is refused before any payload is trusted.
  model.save_checkpoint(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(ChunkedModel::load_checkpoint(*algo, t, path), PreconditionError);

  // A checkpoint for one instance does not load as another.
  model.save_checkpoint(path);
  EXPECT_THROW(ChunkedModel::load_checkpoint(*algo, graph::classic_ring(4), path),
               PreconditionError);
}

// --- analysis bridges ------------------------------------------------------

TEST(Store, AnalysesMatchContiguousPathOnCompleteModels) {
  const ScratchDir scratch("analysis");
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::parallel_arcs(3);
  ChunkedModel chunked = explore(*algo, t, suite_options(scratch, 512));
  if (force_spill()) chunked.spill();
  const Model model = chunked.materialize();
  ASSERT_FALSE(model.truncated());

  const auto reach_store = reachable_states(chunked);
  const auto reach_direct = mdp::reachable_states(model);
  EXPECT_EQ(reach_store, reach_direct);

  const auto mecs_store = maximal_end_components(chunked);
  const auto mecs_direct = mdp::maximal_end_components(model);
  ASSERT_EQ(mecs_store.size(), mecs_direct.size());
  for (std::size_t i = 0; i < mecs_store.size(); ++i) {
    EXPECT_EQ(mecs_store[i].states, mecs_direct[i].states) << "MEC " << i;
    EXPECT_EQ(mecs_store[i].phil_mask, mecs_direct[i].phil_mask) << "MEC " << i;
  }

  const auto fair_store = check_fair_progress(chunked);
  const auto fair_direct = mdp::check_fair_progress(model);
  EXPECT_EQ(fair_store.verdict, fair_direct.verdict);
  EXPECT_EQ(fair_store.num_mecs, fair_direct.num_mecs);
  EXPECT_EQ(fair_store.num_fair_mecs, fair_direct.num_fair_mecs);
  EXPECT_EQ(fair_store.witness_size, fair_direct.witness_size);
  EXPECT_EQ(fair_store.witness_state, fair_direct.witness_state);
  // Theorem 2 on three parallel arcs: LR2 progress fails — through chunks too.
  EXPECT_EQ(fair_store.verdict, Verdict::kProgressFails);

  const auto quant_store = analyze(chunked);
  const auto quant_direct = quant::analyze(model);
  EXPECT_EQ(quant_store.certainty, quant_direct.certainty);
  EXPECT_EQ(quant_store.p_min, quant_direct.p_min);
  EXPECT_EQ(quant_store.p_max, quant_direct.p_max);
  EXPECT_EQ(quant_store.p_trap, quant_direct.p_trap);
  EXPECT_EQ(quant_store.e_min, quant_direct.e_min);
  EXPECT_EQ(quant_store.e_max, quant_direct.e_max);
  EXPECT_EQ(quant_store.sweeps, quant_direct.sweeps);
}

TEST(Store, TruncatedModelsKeepRefusalSemantics) {
  const ScratchDir scratch("truncated");
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::classic_ring(3);
  CheckOptions capped;
  capped.max_states = 2'000;
  const ChunkedModel chunked = explore(*algo, t, suite_options(scratch, 512), capped);
  ASSERT_TRUE(chunked.truncated());
  const Model model = chunked.materialize();

  // The bridge inherits the engines' truncation semantics exactly: same
  // verdict as the contiguous path, and quant can never certify.
  const auto fair_store = check_fair_progress(chunked);
  const auto fair_direct = mdp::check_fair_progress(model);
  EXPECT_EQ(fair_store.verdict, fair_direct.verdict);
  EXPECT_EQ(fair_store.witness_size, fair_direct.witness_size);

  const auto quant_store = analyze(chunked);
  EXPECT_EQ(quant_store.certainty, quant::Certainty::kTruncated);
  EXPECT_EQ(quant_store.p_min, quant::analyze(model).p_min);
}

// --- chunk-native verdicts -------------------------------------------------

struct VerdictCombo {
  const char* algo;
  graph::Topology topology;
  std::size_t cap;  // exploration cap; the chord instances truncate at it
};

// Complete instances (ring/parallel) pin byte-identical verdicts and
// intervals against the materialized path; the chord instances truncate at
// the cap and pin the refusal semantics instead — both through the same
// chunk-native kernels, at every thread count.
std::vector<VerdictCombo> verdict_matrix() {
  return {
      {"lr2", graph::classic_ring(3), 2'000'000},
      {"lr2", graph::ring_with_chord(4), 10'000},
      {"lr2", graph::parallel_arcs(3), 2'000'000},
      {"gdp2", graph::classic_ring(3), 30'000},
      {"gdp2", graph::ring_with_chord(4), 10'000},
      {"gdp2", graph::parallel_arcs(3), 2'000'000},
  };
}

TEST(Store, ChunkNativeVerdictsMatchMaterializedPath) {
  const ScopedObs obs_on;
  const ScratchDir scratch("verdicts");
  for (const VerdictCombo& combo : verdict_matrix()) {
    const auto algo = algos::make_algorithm(combo.algo);
    for (int threads : thread_counts()) {
      SCOPED_TRACE(std::string(combo.algo) + " on " + combo.topology.name() +
                   " at threads=" + std::to_string(threads));
      CheckOptions opts;
      opts.threads = threads;
      opts.max_states = combo.cap;

      ChunkedModel chunked = explore(*algo, combo.topology, suite_options(scratch, 512), opts);
      if (force_spill()) chunked.spill();
      // The materialized reference comes FIRST, so the counter snapshot
      // below proves the chunk-native calls never materialize on their own.
      const Model model = chunked.materialize();
      const std::uint64_t mats_before = materializations_counter().value();

      const auto fair_store = check_fair_progress(chunked, ~std::uint64_t{0});
      const auto fair_direct = mdp::check_fair_progress(model, ~std::uint64_t{0});
      EXPECT_EQ(fair_store.verdict, fair_direct.verdict);
      EXPECT_EQ(fair_store.num_mecs, fair_direct.num_mecs);
      EXPECT_EQ(fair_store.num_fair_mecs, fair_direct.num_fair_mecs);
      EXPECT_EQ(fair_store.witness_size, fair_direct.witness_size);
      EXPECT_EQ(fair_store.witness_state, fair_direct.witness_state);

      quant::QuantOptions qopts;
      qopts.threads = threads;
      const auto quant_store = analyze(chunked, ~std::uint64_t{0}, qopts);
      const auto quant_direct = quant::analyze(model, ~std::uint64_t{0}, qopts);
      EXPECT_EQ(quant_store.certainty, quant_direct.certainty);
      EXPECT_EQ(quant_store.p_min, quant_direct.p_min);
      EXPECT_EQ(quant_store.p_max, quant_direct.p_max);
      EXPECT_EQ(quant_store.p_trap, quant_direct.p_trap);
      EXPECT_EQ(quant_store.e_min, quant_direct.e_min);
      EXPECT_EQ(quant_store.e_max, quant_direct.e_max);
      EXPECT_EQ(quant_store.sweeps, quant_direct.sweeps);
      if (chunked.truncated()) {
        EXPECT_EQ(quant_store.certainty, quant::Certainty::kTruncated);
      }

      EXPECT_EQ(materializations_counter().value(), mats_before)
          << "the chunk-native verdict path must not materialize";
    }
  }
}

TEST(Store, ResumeDoesNotMaterialize) {
  const ScopedObs obs_on;
  const ScratchDir scratch("resume_native");
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::classic_ring(3);

  CheckOptions capped;
  capped.max_states = 2'000;
  const ChunkedModel checkpoint = explore(*algo, t, suite_options(scratch, 512), capped);
  ASSERT_TRUE(checkpoint.truncated());
  const std::string path = scratch.path("ckpt.gdpstore");
  checkpoint.save_checkpoint(path);
  const ChunkedModel loaded = ChunkedModel::load_checkpoint(*algo, t, path);

  const ChunkedModel one_shot = explore(*algo, t, suite_options(scratch, 512));
  const std::uint64_t mats_before = materializations_counter().value();
  const ChunkedModel resumed = resume(*algo, t, loaded, suite_options(scratch, 512));
  EXPECT_EQ(materializations_counter().value(), mats_before)
      << "resume must seed the explorer from chunk reads, not a materialized model";
  EXPECT_EQ(resumed.fingerprint(), one_shot.fingerprint());
  EXPECT_FALSE(resumed.truncated());
}

// --- bounded residency -----------------------------------------------------

TEST(Store, BoundedResidencyCapsResidentSetWithoutChangingVerdicts) {
  const ScopedObs obs_on;
  const ScratchDir scratch("residency");
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::parallel_arcs(3);
  const std::size_t budget = 2;

  StoreOptions bounded_opts;
  bounded_opts.chunk_states = 256;  // 6.5k states -> ~26 chunks, real paging
  bounded_opts.spill = true;
  bounded_opts.dir = scratch.dir();
  bounded_opts.max_resident_chunks = budget;
  ChunkedModel bounded = explore(*algo, t, bounded_opts);
  ASSERT_GT(bounded.num_chunks(), budget * 2);
  // Spilled under a budget: everything starts cold.
  EXPECT_EQ(bounded.resident_bytes(), 0u);

  obs::Counter& faults = obs::Registry::global().counter("store.chunk_faults", obs::Plane::kTiming);
  obs::Counter& evictions =
      obs::Registry::global().counter("store.chunk_evictions", obs::Plane::kTiming);
  const std::uint64_t faults_before = faults.value();
  const std::uint64_t evictions_before = evictions.value();

  const auto fair_bounded = check_fair_progress(bounded);
  const auto quant_bounded = analyze(bounded);

  // A full sweep over ~26 chunks through a 2-chunk window must page.
  EXPECT_GT(faults.value(), faults_before);
  EXPECT_GT(evictions.value(), evictions_before);

  // The hot set never exceeded the budget (in chunks, so in bytes too).
  std::size_t max_chunk_bytes = 0;
  for (std::size_t i = 0; i < bounded.num_chunks(); ++i) {
    max_chunk_bytes = std::max(max_chunk_bytes, bounded.chunk(i).payload_bytes());
  }
  EXPECT_LE(bounded.peak_resident_bytes(), budget * max_chunk_bytes);
  EXPECT_LE(bounded.resident_bytes(), budget * max_chunk_bytes);

  // Eviction is invisible to the verdicts: same results as unbounded.
  StoreOptions unbounded_opts = bounded_opts;
  unbounded_opts.max_resident_chunks = 0;
  const ChunkedModel unbounded = explore(*algo, t, unbounded_opts);
  const auto fair_ref = check_fair_progress(unbounded);
  EXPECT_EQ(fair_bounded.verdict, fair_ref.verdict);
  EXPECT_EQ(fair_bounded.num_mecs, fair_ref.num_mecs);
  EXPECT_EQ(fair_bounded.witness_size, fair_ref.witness_size);
  const auto quant_ref = analyze(unbounded);
  EXPECT_EQ(quant_bounded.certainty, quant_ref.certainty);
  EXPECT_EQ(quant_bounded.p_min, quant_ref.p_min);
  EXPECT_EQ(quant_bounded.p_max, quant_ref.p_max);
  EXPECT_EQ(quant_bounded.e_min, quant_ref.e_min);
  EXPECT_EQ(quant_bounded.e_max, quant_ref.e_max);
}

// --- chunk geometry --------------------------------------------------------

TEST(Store, ChunkSeamsCoverEveryState) {
  const ScratchDir scratch("seams");
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::parallel_arcs(3);
  const std::size_t chunk_states = env_size("GDP_TEST_CHUNK_STATES", 64);
  const ChunkedModel chunked = explore(*algo, t, suite_options(scratch, chunk_states));
  const Model model = chunked.materialize();

  ASSERT_EQ(chunked.num_chunks(),
            (chunked.num_states() + chunk_states - 1) / chunk_states);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < chunked.num_chunks(); ++i) {
    const Chunk& c = chunked.chunk(i);
    EXPECT_EQ(c.first(), static_cast<StateId>(i * chunk_states)) << "chunk " << i;
    EXPECT_LE(c.count(), chunk_states) << "chunk " << i;
    EXPECT_EQ(c.num_phils(), chunked.num_phils()) << "chunk " << i;
    EXPECT_EQ(c.key_words(), chunked.codec().key_words()) << "chunk " << i;
    covered += c.count();
  }
  EXPECT_EQ(covered, chunked.num_states());
  expect_matches_model(chunked, model);
}

}  // namespace
}  // namespace gdp::mdp::store
