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
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/obs/obs.hpp"
#include "verdict_expect.hpp"

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
        ChunkedModel::from_model(model, base.codec(), base.flat_keys(), options);
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
  ChunkedModel spilled = ChunkedModel::from_model(model, chunked.codec(),
                                                  chunked.flat_keys(), spill_opts);
  spilled.spill();
  EXPECT_EQ(spilled.resident_bytes(), 0u);
  // Every chunk is backed by the spill file.
  std::size_t payload_bytes = 0;
  for (std::size_t i = 0; i < spilled.num_chunks(); ++i) {
    payload_bytes += spilled.chunk(i).payload_bytes();
  }
  EXPECT_GT(payload_bytes, 0u);
  EXPECT_EQ(spilled.spilled_bytes(), payload_bytes);
  EXPECT_EQ(spilled.fingerprint(), fp_resident);
  expect_matches_model(spilled, model);

  // Keys survive the spill too (the resume path reads them from chunks).
  const std::vector<std::uint64_t> keys = spilled.flat_keys();
  const std::size_t kw = spilled.codec().key_words();
  ASSERT_EQ(keys.size(), model.num_states() * kw);
  ASSERT_EQ(keys, chunked.flat_keys());
  for (StateId s = 0; s < model.num_states(); ++s) {
    PackedKey key;
    key.assign(keys.data() + s * kw, kw);
    ASSERT_EQ(spilled.key(s), key) << "state " << s;
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

/// Regular files directly in `dir`.
std::size_t files_in(const std::string& dir) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) ++files;
  }
  return files;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Store, SpillWritesOneFilePerModel) {
  const ScratchDir scratch("spill_one_file");
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::parallel_arcs(3);
  StoreOptions options;
  options.chunk_states = 256;  // ~26 chunks, still one file
  options.dir = scratch.dir();
  ChunkedModel model = explore(*algo, t, options);
  ASSERT_GT(model.num_chunks(), 1u);
  EXPECT_EQ(files_in(scratch.dir()), 0u);
  model.spill();
  EXPECT_EQ(files_in(scratch.dir()), 1u);
  model.spill();  // already file-backed: no second file
  EXPECT_EQ(files_in(scratch.dir()), 1u);
}

TEST(Store, CheckpointBytesDoNotDependOnWhereTheBodyLives) {
  const ScratchDir scratch("save_body");
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::classic_ring(3);
  StoreOptions options;
  options.chunk_states = 512;
  options.dir = scratch.dir();
  CheckOptions capped;
  capped.max_states = 2'000;
  ChunkedModel model = explore(*algo, t, options, capped);
  ASSERT_TRUE(model.truncated());

  const std::string heap_path = scratch.path("heap.ckpt");
  model.save_checkpoint(heap_path);
  model.spill();
  ASSERT_GT(model.spilled_bytes(), 0u);
  const std::string file_path = scratch.path("spilled.ckpt");
  model.save_checkpoint(file_path);

  const std::vector<char> heap_bytes = file_bytes(heap_path);
  ASSERT_FALSE(heap_bytes.empty());
  EXPECT_TRUE(heap_bytes == file_bytes(file_path)) << "checkpoint bytes depend on the body";
  EXPECT_EQ(ChunkedModel::load_checkpoint(*algo, t, heap_path).fingerprint(), model.fingerprint());
  EXPECT_EQ(ChunkedModel::load_checkpoint(*algo, t, file_path).fingerprint(), model.fingerprint());
}

TEST(Store, SpillOfLoadedCheckpointIsNoOp) {
  const ScratchDir scratch("spill_loaded");
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::parallel_arcs(3);
  StoreOptions options;
  options.chunk_states = 256;
  const ChunkedModel model = explore(*algo, t, options);
  const std::string path = scratch.path("ckpt.gdpstore");
  model.save_checkpoint(path);

  const std::string spill_dir = scratch.path("spill");
  StoreOptions load_options;
  load_options.dir = spill_dir;
  ChunkedModel loaded = ChunkedModel::load_checkpoint(*algo, t, path, load_options);
  const std::size_t resident = loaded.resident_bytes();
  loaded.spill();
  EXPECT_FALSE(std::filesystem::exists(spill_dir)) << "spill() wrote a file for a loaded model";
  EXPECT_EQ(loaded.spilled_bytes(), 0u);
  EXPECT_EQ(loaded.resident_bytes(), resident);
  EXPECT_EQ(loaded.fingerprint(), model.fingerprint());
  expect_matches_model(loaded, model.materialize());
}

// --- corruption refusal ----------------------------------------------------

/// A checkpoint file as 64-bit words, for forging: header (9 words), the
/// per-chunk size and fingerprint tables, then the chunk payloads. reseal()
/// recomputes a chunk's FNV-1a fingerprint the way a crafted file would,
/// so only the loader's structure checks stand between it and the readers.
class CheckpointForgery {
 public:
  explicit CheckpointForgery(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    words_.resize(std::filesystem::file_size(path) / sizeof(std::uint64_t));
    in.read(reinterpret_cast<char*>(words_.data()),
            static_cast<std::streamsize>(words_.size() * sizeof(std::uint64_t)));
  }

  std::size_t num_states() const { return words_[5]; }
  std::size_t num_chunks() const { return words_[7]; }

  /// Chunk ci's payload: first, count, num_phils, key_words, num_outcomes,
  /// then the offsets and the outcome words.
  std::uint64_t* chunk(std::size_t ci) {
    std::size_t at = kHeader + 2 * num_chunks();
    for (std::size_t i = 0; i < ci; ++i) at += words_[kHeader + i];
    return words_.data() + at;
  }
  /// Chunk ci's outcomes, one word each: prob in the low half, next in the
  /// high half.
  std::uint64_t* outcomes(std::size_t ci) {
    std::uint64_t* c = chunk(ci);
    return c + 5 + c[1] * c[2] + 1;
  }
  /// Chunk ci's eater masks, one word per state.
  std::uint64_t* eaters(std::size_t ci) {
    std::uint64_t* c = chunk(ci);
    return outcomes(ci) + c[4];
  }
  /// Chunk ci's frontier bits, 64 states per word.
  std::uint64_t* frontier(std::size_t ci) { return eaters(ci) + chunk(ci)[1]; }
  /// Header word 6: the truncated flag.
  void set_truncated(bool truncated) { words_[6] = truncated ? 1 : 0; }
  static StateId next_of(std::uint64_t outcome) { return static_cast<StateId>(outcome >> 32); }
  static std::uint64_t with_next(std::uint64_t outcome, std::uint64_t next) {
    return (outcome & 0xFFFFFFFFu) | (next << 32);
  }

  void reseal(std::size_t ci) {
    std::uint64_t h = 1469598103934665603ULL;
    const std::uint64_t* c = chunk(ci);
    for (std::size_t i = 0; i < words_[kHeader + ci]; ++i) {
      for (int b = 0; b < 8; ++b) {
        h ^= (c[i] >> (8 * b)) & 0xff;
        h *= 1099511628211ULL;
      }
    }
    words_[kHeader + num_chunks() + ci] = h;
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(words_.data()),
              static_cast<std::streamsize>(words_.size() * sizeof(std::uint64_t)));
  }

 private:
  static constexpr std::size_t kHeader = 9;
  std::vector<std::uint64_t> words_;
};

/// Expects loading `path` to throw PreconditionError mentioning `why`.
void expect_refused(const algos::Algorithm& algo, const graph::Topology& t,
                    const std::string& path, const std::string& why) {
  try {
    (void)ChunkedModel::load_checkpoint(algo, t, path);
    ADD_FAILURE() << "forged checkpoint loaded; expected a refusal mentioning '" << why << "'";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

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

  // Forgeries with recomputed chunk fingerprints are refused on structure.
  // An outcome pointing past the last state:
  {
    CheckpointForgery forged(path);
    std::uint64_t* o = forged.outcomes(0);
    o[0] = CheckpointForgery::with_next(o[0], forged.num_states());
    forged.reseal(0);
    forged.write(path);
    expect_refused(*algo, t, path, "targets unknown state");
  }
  // A header whose outcome count points eaters() and the key runs past the
  // payload (the last chunk's, i.e. past the end of the file):
  model.save_checkpoint(path);
  {
    CheckpointForgery forged(path);
    const std::size_t last = forged.num_chunks() - 1;
    forged.chunk(last)[4] += 1'000'000;
    forged.reseal(last);
    forged.write(path);
    expect_refused(*algo, t, path, "payload length");
  }
  // An orphan: every outcome into the last state is redirected to state 0,
  // so the last state has no incoming outcome from a lower id.
  model.save_checkpoint(path);
  {
    CheckpointForgery forged(path);
    const StateId last_state = static_cast<StateId>(forged.num_states() - 1);
    std::size_t redirected = 0;
    for (std::size_t ci = 0; ci < forged.num_chunks(); ++ci) {
      std::uint64_t* o = forged.outcomes(ci);
      bool touched = false;
      for (std::size_t i = 0; i < forged.chunk(ci)[4]; ++i) {
        if (CheckpointForgery::next_of(o[i]) != last_state) continue;
        o[i] = CheckpointForgery::with_next(o[i], 0);
        touched = true;
        ++redirected;
      }
      if (touched) forged.reseal(ci);
    }
    ASSERT_GT(redirected, 0u);
    forged.write(path);
    expect_refused(*algo, t, path,
                   "not rooted: state " + std::to_string(last_state) + " has no incoming");
  }
  // An eater bit naming philosopher num_phils, who does not exist:
  model.save_checkpoint(path);
  {
    CheckpointForgery forged(path);
    forged.eaters(0)[0] |= std::uint64_t{1} << forged.chunk(0)[2];
    forged.reseal(0);
    forged.write(path);
    expect_refused(*algo, t, path, "eater mask beyond num_phils at state 0");
  }
  // A frontier bit on the last state, which has rows:
  model.save_checkpoint(path);
  {
    CheckpointForgery forged(path);
    const std::size_t last = forged.num_chunks() - 1;
    const std::size_t local = forged.chunk(last)[1] - 1;
    forged.frontier(last)[local >> 6] |= std::uint64_t{1} << (local & 63);
    forged.reseal(last);
    forged.write(path);
    expect_refused(*algo, t, path,
                   "has rows on frontier state " + std::to_string(forged.num_states() - 1));
  }

  // A capped model's frontier tail is what the next two forgeries bend.
  CheckOptions capped_opts;
  capped_opts.max_states = 2'000;
  const ChunkedModel capped = explore(*algo, t, suite_options(scratch, 512), capped_opts);
  ASSERT_TRUE(capped.truncated());
  ASSERT_TRUE(capped.frontier(static_cast<StateId>(capped.num_states() - 2)));
  // The last state's frontier bit cleared: an (empty) expanded state after
  // the frontier, so the frontier is no longer the id tail.
  capped.save_checkpoint(path);
  {
    CheckpointForgery forged(path);
    const std::size_t last = forged.num_chunks() - 1;
    const std::size_t local = forged.chunk(last)[1] - 1;
    forged.frontier(last)[local >> 6] &= ~(std::uint64_t{1} << (local & 63));
    forged.reseal(last);
    forged.write(path);
    expect_refused(*algo, t, path,
                   "frontier that is not an id tail: state " +
                       std::to_string(forged.num_states() - 1) + " is expanded");
  }
  // The truncated flag cleared: unexplored states passed off as a complete
  // model, whose verdicts would read as certified.
  capped.save_checkpoint(path);
  {
    CheckpointForgery forged(path);
    forged.set_truncated(false);
    forged.write(path);
    expect_refused(*algo, t, path, "truncated flag that disagrees");
  }
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

  const auto mecs_store = maximal_end_components(chunked);
  const auto mecs_direct = mdp::maximal_end_components(model);
  ASSERT_EQ(mecs_store.size(), mecs_direct.size());
  for (std::size_t i = 0; i < mecs_store.size(); ++i) {
    EXPECT_EQ(mecs_store[i].states, mecs_direct[i].states) << "MEC " << i;
    EXPECT_EQ(mecs_store[i].phil_mask, mecs_direct[i].phil_mask) << "MEC " << i;
  }

  const auto fair_store = check_fair_progress(chunked);
  const auto fair_direct = mdp::check_fair_progress(model);
  testutil::expect_same_verdict(fair_store, fair_direct);
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
  testutil::expect_same_verdict(fair_store, fair_direct);

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
      testutil::expect_same_verdict(fair_store, fair_direct);

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
      // One decomposition, one answer: the analysis carries the verdict.
      testutil::expect_same_verdict(quant_store.progress, fair_store);
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
  testutil::expect_same_verdict(fair_bounded, fair_ref);
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
