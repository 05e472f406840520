// gdp::mdp::store — a chunked, spillable, checkpointable model store.
//
// The explorers' Model is one contiguous CSR: fine until the paper's larger
// topologies (chord/star tiers in ROADMAP.md) outgrow one process's RAM,
// and until a capped run needs to be *worth keeping*. The store re-packs a
// model into fixed-size chunks of `chunk_states` consecutive states, each a
// self-contained flat 64-bit payload:
//
//   header   first state id, state count, num_phils, key_words, #outcomes
//   offsets  chunk-local CSR row offsets (count * num_phils + 1)
//   outcomes transition rows; `next` ids stay GLOBAL state ids
//   eaters   per-state eater masks
//   frontier per-state unexpanded-frontier bits, packed 64 per word
//   keys     the states' key runs, key_words words per state
//
// and an FNV-1a fingerprint over the payload words. Three contracts:
//
//   * Read API — ChunkedModel mirrors the Model read interface
//     (num_phils/num_states/eaters/eating/row/frontier/truncated/num_rows),
//     so the MEC, verdict and quant kernel templates instantiate directly
//     over it: store::maximal_end_components / check_fair_progress /
//     analyze and store::resume run chunk-native, without materializing.
//     materialize() still rebuilds a validated contiguous Model. State
//     ids are a discovery order, as in Model; load_checkpoint() enforces it.
//
//   * One body, spillable — a ChunkedModel's chunk payloads sit back to
//     back, as in a checkpoint, in one heap vector or one read-only file
//     mapping; chunks are views into it. spill() streams the model to one
//     file in StoreOptions::dir through save_checkpoint()'s writer
//     (fingerprint slots zero: spill files are private scratch), remaps it
//     through load_checkpoint()'s mapper and frees the heap body (built
//     with StoreOptions::spill, the chunks stream straight to the file);
//     reads fault pages back in on demand. With
//     StoreOptions::max_resident_chunks set, an LRU residency manager
//     bounds how many chunks of a file-backed model stay paged in at once
//     (see detail::Residency).
//
//   * Cap-as-checkpoint — the level-synchronous explorers leave a capped
//     model with its unexpanded frontier as the id tail, so a capped run
//     IS a checkpoint: save_checkpoint() streams one fingerprinted file,
//     load_checkpoint() verifies and reopens it (zero-copy, mmap), and
//     resume() continues exploration bit-identically — the resumed model's
//     fingerprint equals the uncapped one-shot run's at every thread count
//     (pinned by `ctest -L store`).
//
// Checkpoint and spill files are same-machine artifacts (host endianness
// and struct layout), not a portable interchange format.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gdp/common/grow_array.hpp"
#include "gdp/common/thread_annotations.hpp"
#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/quant/quant.hpp"

namespace gdp::mdp::store {

struct StoreOptions {
  /// States per chunk (the last chunk may be short). Small values force
  /// many chunks — the CI spill job uses this to exercise chunk seams.
  std::size_t chunk_states = std::size_t{1} << 15;

  /// Spill the model to `dir` immediately after construction.
  bool spill = false;

  /// Directory for spill files (one per model); created if missing.
  /// Required when `spill` is set (and by any later explicit spill() call
  /// on a heap-backed model). Several models may share one dir within a
  /// process: each names its file with a process-unique sequence number,
  /// so live mappings are never clobbered by a later model's spill.
  std::string dir;

  /// Residency budget over a FILE-BACKED model (spilled or
  /// checkpoint-loaded), in chunks; 0 means unbounded (every faulted page
  /// stays until the mapping dies — the historical behavior). With a
  /// budget, read-API access pages a cold chunk in ("store.chunk_faults")
  /// and evicts the least-recently-touched hot chunks beyond the budget
  /// ("store.chunk_evictions") by dropping their pages back to the file.
  /// Eviction never invalidates pointers: rows held across an eviction
  /// simply refault from the file, so the parallel kernels need no hooks.
  /// A heap-backed model is exempt as a whole (there is no file to drop
  /// to); the budget takes effect when it spills.
  std::size_t max_resident_chunks = 0;
};

/// One fixed-size chunk: a non-owning, trivially copyable view of a flat
/// 64-bit payload inside its model's body. The section pointers are
/// computed once, when the view is made; the view never outlives the body.
class Chunk {
 public:
  /// A view of `words` payload words, which must be exactly the layout its
  /// header implies (load_checkpoint() validates that before making one).
  Chunk(const std::uint64_t* payload, std::size_t words);
  /// `chunk`'s view moved to `payload`, a byte-identical copy of its
  /// payload. Reads no payload word, so re-pointing at a fresh file
  /// mapping faults no page in.
  Chunk(const Chunk& chunk, const std::uint64_t* payload);

  StateId first() const { return static_cast<StateId>(payload_[0]); }
  std::size_t count() const { return payload_[1]; }
  int num_phils() const { return static_cast<int>(payload_[2]); }
  std::size_t key_words() const { return payload_[3]; }
  std::size_t num_outcomes() const { return payload_[4]; }

  /// Chunk-local CSR offsets: count * num_phils + 1 entries, starting at 0.
  const std::uint64_t* offsets() const { return offsets_; }
  /// Transition rows; `next` fields are global state ids.
  const Outcome* outcomes() const { return outcomes_; }
  const std::uint64_t* eaters() const { return eaters_; }
  bool frontier(std::size_t local) const {
    return ((frontier_[local >> 6] >> (local & 63)) & 1) != 0;
  }
  /// key_words() words per state, count() states.
  const std::uint64_t* key_run(std::size_t local) const { return keys_ + local * key_words(); }

  /// Payload words (header included) of a chunk with this header.
  static std::size_t layout_words(std::size_t count, std::size_t num_phils,
                                  std::size_t num_outcomes, std::size_t key_words) {
    return kHeaderWords + count * num_phils + 1 + num_outcomes + count + (count + 63) / 64 +
           count * key_words;
  }
  static constexpr std::size_t kHeaderWords = 5;

  /// The raw payload words (header included) — what fingerprint() hashes
  /// and save_checkpoint() serializes.
  std::span<const std::uint64_t> payload() const { return {payload_, payload_words_}; }
  std::size_t payload_bytes() const { return payload_words_ * sizeof(std::uint64_t); }
  std::uint64_t fingerprint() const;

 private:
  const std::uint64_t* payload_ = nullptr;
  std::size_t payload_words_ = 0;
  const std::uint64_t* offsets_ = nullptr;
  const Outcome* outcomes_ = nullptr;
  const std::uint64_t* eaters_ = nullptr;
  const std::uint64_t* frontier_ = nullptr;
  const std::uint64_t* keys_ = nullptr;
};

namespace detail {

/// Deleter of a read-only file mapping of `bytes` bytes (munmap).
struct Unmap {
  std::size_t bytes = 0;
  void operator()(const std::uint64_t* words) const;
};
/// A read-only file mapping — the one owner of a file-backed model's bytes.
using FileMap = std::unique_ptr<const std::uint64_t, Unmap>;

/// Bounded-resident chunk manager over one file mapping: a pseudo-LRU over
/// the model's chunks, keyed by an epoch stamp per chunk (0 = cold / pages
/// dropped, otherwise the epoch of the last *fault* that found it cold).
/// The hot path — touching an already-hot chunk — is one relaxed atomic
/// load and never takes the lock; the fault path is mutex-serialized and
/// evicts min-stamp victims until the hot set fits the budget again.
///
/// The stamp is deliberately NOT refreshed on every touch: a strict-LRU
/// stamp-per-read would put a contended store on every row() call. Fault
/// order is a good-enough recency signal for the streaming sweeps the
/// verdict kernels run, and it keeps the fast path read-mostly.
///
/// The manager never owns the chunks — every call takes the chunk vector by
/// reference, so a moved-from ChunkedModel leaves no dangling pointer here.
/// It only ever drops pages inside the mapping it was made for: on heap
/// memory, MADV_DONTNEED would zero the model.
class Residency {
 public:
  /// Starts cold: drops every page of `file` (verification or the spill
  /// write may have touched them), so the first sweep's faults are what
  /// page the working set in.
  Residency(const FileMap& file, std::size_t num_chunks, std::size_t budget);

  Residency(const Residency&) = delete;
  Residency& operator=(const Residency&) = delete;

  /// Marks chunk `idx` used; pages it in (and evicts) if cold.
  void touch(const std::vector<Chunk>& chunks, std::size_t idx) {
    if (stamps_[idx].load(std::memory_order_relaxed) != 0) return;
    fault(chunks, idx);
  }

  /// Bytes of currently-hot payloads, and the high-water mark.
  std::size_t hot_bytes() const;
  std::size_t peak_bytes() const;

 private:
  void fault(const std::vector<Chunk>& chunks, std::size_t idx);
  /// Returns the whole pages inside `words` to the kernel; the next access
  /// refaults them from the file.
  void drop_pages(std::span<const std::uint64_t> words) const;

  const std::span<const std::uint64_t> file_;  // the mapping pages drop back to
  const std::size_t budget_;                   // max hot chunks, >= 1
  /// Per-chunk last-fault epoch; 0 = cold. Relaxed: the stamp orders
  /// nothing — correctness never depends on it (an evicted chunk refaults).
  std::vector<std::atomic<std::uint64_t>> stamps_;
  mutable common::Mutex mu_;
  std::uint64_t epoch_ GDP_GUARDED_BY(mu_) = 0;
  std::size_t hot_count_ GDP_GUARDED_BY(mu_) = 0;
  std::size_t hot_bytes_ GDP_GUARDED_BY(mu_) = 0;
  std::size_t peak_bytes_ GDP_GUARDED_BY(mu_) = 0;
};

}  // namespace detail

/// A model as a sequence of chunk views over one body. Mirrors the Model
/// read API; see the header comment for the spill and checkpoint
/// contracts. Move-only (a move keeps every view valid).
class ChunkedModel {
 public:
  ChunkedModel(const ChunkedModel&) = delete;
  ChunkedModel& operator=(const ChunkedModel&) = delete;
  ChunkedModel(ChunkedModel&&) = default;
  ChunkedModel& operator=(ChunkedModel&&) = default;

  /// Chunks `model`. `keys` are the model's id-ordered packed keys as one
  /// flat run of codec.key_words() words per state, and `codec` the layout
  /// that produced them (both from the explorer's StateIndex).
  /// Frontier states must be a contiguous id tail (the level-synchronous
  /// explorers guarantee it). With options.spill the chunks stream
  /// straight into the spill file, one at a time (no heap body).
  static ChunkedModel from_model(const Model& model, const KeyCodec& codec,
                                 std::span<const std::uint64_t> keys, StoreOptions options = {});

  // --- the Model read API ---
  int num_phils() const { return num_phils_; }
  std::size_t num_states() const { return num_states_; }
  StateId initial() const { return 0; }
  bool eating(StateId s) const { return eaters(s) != 0; }
  std::uint64_t eaters(StateId s) const { return chunk_of(s).eaters()[local_of(s)]; }
  std::pair<const Outcome*, const Outcome*> row(StateId s, int p) const {
    const Chunk& c = chunk_of(s);
    const std::size_t base = local_of(s) * static_cast<std::size_t>(num_phils_) +
                             static_cast<std::size_t>(p);
    return {c.outcomes() + c.offsets()[base], c.outcomes() + c.offsets()[base + 1]};
  }
  bool truncated() const { return truncated_; }
  bool frontier(StateId s) const { return chunk_of(s).frontier(local_of(s)); }
  std::size_t num_rows() const { return num_states_ * static_cast<std::size_t>(num_phils_); }

  // --- store-specific surface ---
  const KeyCodec& codec() const { return codec_; }
  /// State s's key: a view of its codec().key_words() words in its chunk.
  /// It stays valid until the model is destroyed or spill() moves a heap
  /// body to a file; an evicted chunk's words refault when read.
  std::span<const std::uint64_t> key(StateId s) const {
    return {chunk_of(s).key_run(local_of(s)), codec_.key_words()};
  }
  /// Every state key, id-ordered, as one flat run of codec().key_words()
  /// words per state: the resume path's seed, which the explorer's
  /// StateIndex takes over as its key array.
  common::GrowArray<std::uint64_t> flat_keys() const;

  std::size_t num_chunks() const { return chunks_.size(); }
  std::size_t chunk_states() const { return chunk_states_; }
  const Chunk& chunk(std::size_t i) const { return chunks_[i]; }

  /// Chunking-independent model fingerprint: an FNV-1a stream over every
  /// state's logical content (key words, eater mask, frontier bit, rows) in
  /// id order, prefixed with the shape. Equal fingerprints <=> equal models
  /// (up to 64-bit FNV collisions), regardless of chunk_states and of
  /// whether the model ever hit a cap along the way.
  std::uint64_t fingerprint() const;

  /// Bytes of the body currently resident: all of a heap body; under a
  /// max_resident_chunks budget, the hot set of a file-backed one; without
  /// a budget, all of a loaded checkpoint and none of a spilled model (the
  /// historical accounting).
  std::size_t resident_bytes() const;
  /// High-water mark of the budget-managed hot set (resident_bytes() when
  /// no budget is active) — what the `ctest -L store` residency pin reads.
  std::size_t peak_resident_bytes() const;
  /// The whole body if this model spilled it to its own file, else 0.
  std::size_t spilled_bytes() const;

  /// Streams the heap body to one file in options.dir, remaps it read-only
  /// and frees the heap body. A no-op on a file-backed model (already
  /// spilled, or a loaded checkpoint).
  void spill();

  /// Rebuilds the contiguous, validated Model (Model::build re-checks the
  /// CSR invariants — a second line of defense after the fingerprints).
  Model materialize() const;

  /// One self-contained fingerprinted file: header + per-chunk size and
  /// fingerprint tables + the body, streamed from wherever the body lives.
  void save_checkpoint(const std::string& path) const;
  /// Maps `path` read-only and verifies the header against (algo, t) and
  /// every fingerprint against the payloads. Each chunk's structure is
  /// validated right after its fingerprint — payload length against the
  /// layout its header implies, monotone offsets ending at its outcome
  /// count, every `next` a valid state id, eater masks within num_phils,
  /// frontier states an id tail with empty rows — and its rows are fed to
  /// the discovery-order check (see Model); the header's `truncated` flag
  /// must agree with whether that tail is empty. So a file whose
  /// fingerprints were recomputed still cannot make a reader leave its
  /// chunk, nor pass unexplored states off as a complete model. Throws
  /// PreconditionError on any mismatch (corruption refusal). Chunks view
  /// the mapping zero-copy.
  /// `options.chunk_states` comes from the file; `options.dir` and
  /// `options.max_resident_chunks` apply to the loaded model (the latter
  /// starts it cold — verification pages are dropped before returning).
  static ChunkedModel load_checkpoint(const algos::Algorithm& algo, const graph::Topology& t,
                                      const std::string& path, StoreOptions options = {});

 private:
  ChunkedModel() = default;

  const Chunk& chunk_of(StateId s) const {
    const std::size_t i = s / chunk_states_;
    if (residency_ != nullptr) residency_->touch(chunks_, i);
    return chunks_[i];
  }
  std::size_t local_of(StateId s) const { return s % chunk_states_; }

  /// Chunk ci's payload words.
  using PayloadSource = std::function<std::span<const std::uint64_t>(std::size_t)>;
  /// The one checkpoint-layout writer: header, size table, fingerprint
  /// table (zeros unless `seal`), then each payload, streamed to `path`.
  void write_file(const std::string& path, std::span<const std::uint64_t> sizes, bool seal,
                  const PayloadSource& payload) const;
  std::vector<std::uint64_t> chunk_sizes() const;
  /// Writes a spill file, maps it and re-points every view into it.
  void spill_file(std::span<const std::uint64_t> sizes, const PayloadSource& payload);
  /// Makes `file` the body (views already point into it); starts the budget.
  void adopt_file(detail::FileMap file);

  int num_phils_ = 0;
  std::size_t num_states_ = 0;
  std::size_t chunk_states_ = 0;
  bool truncated_ = false;
  KeyCodec codec_;
  StoreOptions options_;
  /// The body's owner: heap_ until the model is file-backed, then file_.
  std::vector<std::uint64_t> heap_;
  detail::FileMap file_;
  bool spilled_ = false;  // file_ is this model's spill file, not a checkpoint
  /// The chunk payloads, back to back, wherever they live.
  std::span<const std::uint64_t> body_;
  std::vector<Chunk> chunks_;
  /// Present iff the model is file-backed and options_.max_resident_chunks
  /// > 0 (see detail::Residency).
  std::unique_ptr<detail::Residency> residency_;
};

/// Level-synchronous exploration straight into a chunked store (the same
/// engine as mdp::explore, so the underlying model is bit-identical to its
/// at every thread count).
ChunkedModel explore(const algos::Algorithm& algo, const graph::Topology& t,
                     StoreOptions store_options = {}, CheckOptions options = {});

/// Continues a capped run from `checkpoint` under a (typically larger) cap
/// `options.max_states`. The result composes bit-identically with a
/// one-shot run: resume(save(explore_to_cap)) and the uncapped explore have
/// equal fingerprints at every thread count.
ChunkedModel resume(const algos::Algorithm& algo, const graph::Topology& t,
                    const ChunkedModel& checkpoint, StoreOptions store_options = {},
                    CheckOptions options = {});

// --- analysis over chunked models ---
//
// Chunk-native: each call instantiates the mdp:: / quant:: kernel templates
// directly over the ChunkedModel read API — the model is NEVER materialized
// ("store.materializations" stays 0 across these paths). Because the
// instantiations share one definition with the contiguous path, complete
// models produce byte-identical verdicts and intervals at every thread
// count, and truncated models keep the exact refusal semantics
// (kUnknownTruncated / Certainty::kTruncated). Under a
// max_resident_chunks budget the kernels page chunks in and out as they
// sweep; verdicts are unaffected (eviction only drops clean pages).

std::vector<EndComponent> maximal_end_components(const ChunkedModel& model,
                                                 std::uint64_t avoid_set = ~std::uint64_t{0});

FairProgressResult check_fair_progress(const ChunkedModel& model,
                                       std::uint64_t set_mask = ~std::uint64_t{0});

quant::QuantResult analyze(const ChunkedModel& model,
                           std::uint64_t target_set = ~std::uint64_t{0},
                           quant::QuantOptions options = {});

}  // namespace gdp::mdp::store
