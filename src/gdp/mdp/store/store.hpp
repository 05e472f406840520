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
//   keys     the states' PackedKey runs, key_words words per state
//
// and an FNV-1a fingerprint over the payload words. Three contracts:
//
//   * Read API — ChunkedModel mirrors the Model read interface
//     (num_phils/num_states/eaters/eating/row/frontier/truncated/num_rows),
//     so the MEC, reachability, verdict and quant kernel templates
//     instantiate directly over it: store::reachable_states / maximal_end_components /
//     check_fair_progress / analyze and store::resume run chunk-native,
//     without materializing. materialize() still rebuilds a validated
//     contiguous Model for callers that want one.
//
//   * Spill — spill() writes each chunk payload to its own file in
//     StoreOptions::dir and remaps it read-only (mmap), dropping the heap
//     copy; reads fault pages back in on demand. Fingerprints make silent
//     on-disk corruption a refusal instead of a wrong verdict. With
//     StoreOptions::max_resident_chunks set, an LRU residency manager
//     bounds how many file-backed chunks stay paged in at once (see
//     detail::Residency).
//
//   * Cap-as-checkpoint — the level-synchronous explorers leave a capped
//     model with its unexpanded frontier as the id tail, so a capped run
//     IS a checkpoint: save_checkpoint() writes one fingerprinted file,
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
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

  /// Spill chunk payloads to `dir` immediately after construction.
  bool spill = false;

  /// Directory for spilled chunk files; created if missing. Required when
  /// `spill` is set (and by any later explicit spill() call). Several
  /// models may share one dir within a process: each prefixes its files
  /// with a process-unique sequence number, so live mappings are never
  /// clobbered by a later model's spill.
  std::string dir;

  /// Residency budget over the FILE-BACKED chunks (spilled or
  /// checkpoint-loaded), in chunks; 0 means unbounded (every faulted page
  /// stays until the mapping dies — the historical behavior). With a
  /// budget, read-API access pages a cold chunk in ("store.chunk_faults")
  /// and evicts the least-recently-touched hot chunks beyond the budget
  /// ("store.chunk_evictions") by dropping their pages back to the file.
  /// Eviction never invalidates pointers: rows held across an eviction
  /// simply refault from the file, so the parallel kernels need no hooks.
  /// Heap-resident chunks are exempt (there is no file to drop to).
  std::size_t max_resident_chunks = 0;
};

/// One fixed-size chunk: a flat 64-bit payload, either heap-owned
/// (resident) or a read-only file mapping (spilled / checkpoint-loaded).
/// Move-only; the mapping is unmapped on destruction.
class Chunk {
 public:
  Chunk() = default;
  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;
  Chunk(Chunk&& rhs) noexcept { *this = std::move(rhs); }
  Chunk& operator=(Chunk&& rhs) noexcept;
  ~Chunk() { release(); }

  /// A resident chunk owning `payload` (as laid out by ChunkedModel).
  static Chunk own(std::vector<std::uint64_t> payload);
  /// A non-owning view into `words` payload words (a checkpoint mapping
  /// whose lifetime the ChunkedModel holds).
  static Chunk view(const std::uint64_t* payload, std::size_t words);

  StateId first() const { return static_cast<StateId>(payload_[0]); }
  std::size_t count() const { return payload_[1]; }
  int num_phils() const { return static_cast<int>(payload_[2]); }
  std::size_t key_words() const { return payload_[3]; }
  std::size_t num_outcomes() const { return payload_[4]; }

  /// Chunk-local CSR offsets: count * num_phils + 1 entries, starting at 0.
  const std::uint64_t* offsets() const { return payload_ + kHeaderWords; }
  /// Transition rows; `next` fields are global state ids.
  const Outcome* outcomes() const;
  const std::uint64_t* eaters() const { return outcome_words() + num_outcomes(); }
  bool frontier(std::size_t local) const {
    return ((frontier_words()[local >> 6] >> (local & 63)) & 1) != 0;
  }
  /// key_words() words per state, count() states.
  const std::uint64_t* key_run(std::size_t local) const {
    return frontier_words() + (count() + 63) / 64 + local * key_words();
  }

  /// The raw payload words (header included) — what fingerprint() hashes
  /// and save_checkpoint() serializes.
  const std::uint64_t* payload() const { return payload_; }
  std::size_t payload_words() const { return payload_words_; }
  std::size_t payload_bytes() const { return payload_words_ * sizeof(std::uint64_t); }
  std::uint64_t fingerprint() const;

  bool spilled() const { return owned_.empty() && mapped_ != nullptr; }
  /// Backed by a read-only file mapping rather than the heap: spilled, or a
  /// view into a checkpoint mapping. Only file-backed chunks participate in
  /// the StoreOptions::max_resident_chunks budget — their pages can be
  /// dropped and refaulted from the file at any time.
  bool file_backed() const { return owned_.empty() && payload_ != nullptr; }
  /// Returns the payload pages to the kernel (madvise(MADV_DONTNEED) on the
  /// page-aligned interior); the next access refaults them from the file.
  /// No-op on heap-owned chunks. The payload pointer stays valid — readers
  /// racing an eviction see identical bytes, just slower.
  void drop_pages() const;
  /// Writes the payload to `path`, remaps it read-only, drops the heap copy.
  void spill_to(const std::string& path);

 private:
  static constexpr std::size_t kHeaderWords = 5;

  const std::uint64_t* outcome_words() const {
    return offsets() + count() * static_cast<std::size_t>(num_phils()) + 1;
  }
  const std::uint64_t* frontier_words() const { return eaters() + count(); }
  void release();

  const std::uint64_t* payload_ = nullptr;  // owned_.data(), mapped_, or a view
  std::size_t payload_words_ = 0;
  std::vector<std::uint64_t> owned_;
  void* mapped_ = nullptr;  // non-null iff this chunk owns an mmap
  std::size_t mapped_bytes_ = 0;
};

namespace detail {

/// Bounded-resident chunk manager: a pseudo-LRU over the file-backed
/// chunks, keyed by an epoch stamp per chunk (0 = cold / pages dropped,
/// otherwise the epoch of the last *fault* that found it cold). The hot
/// path — touching an already-hot chunk — is two relaxed atomic ops and
/// never takes the lock; the fault path is mutex-serialized and evicts
/// min-stamp victims until the hot set fits the budget again.
///
/// The stamp is deliberately NOT refreshed on every touch: a strict-LRU
/// stamp-per-read would put a contended store on every row() call. Fault
/// order is a good-enough recency signal for the streaming sweeps the
/// verdict kernels run, and it keeps the fast path read-mostly.
///
/// The manager never owns the chunks — every call takes the chunk vector by
/// reference, so a moved-from ChunkedModel leaves no dangling pointer here.
class Residency {
 public:
  Residency(std::size_t num_chunks, std::size_t budget)
      : budget_(budget == 0 ? 1 : budget), stamps_(num_chunks) {}

  Residency(const Residency&) = delete;
  Residency& operator=(const Residency&) = delete;

  /// Marks chunk `idx` used; pages it in (and evicts) if cold.
  void touch(const std::vector<Chunk>& chunks, std::size_t idx) {
    if (stamps_[idx].load(std::memory_order_relaxed) != 0) return;
    fault(chunks, idx);
  }

  /// Drops every file-backed chunk's pages and zeroes the accounting —
  /// the post-spill / post-load starting state.
  void reset_cold(const std::vector<Chunk>& chunks);

  /// Bytes of currently-hot file-backed payloads, and the high-water mark.
  std::size_t hot_bytes() const;
  std::size_t peak_bytes() const;

 private:
  void fault(const std::vector<Chunk>& chunks, std::size_t idx);

  const std::size_t budget_;  // max hot file-backed chunks, >= 1
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

/// A model as a sequence of chunks. Mirrors the Model read API; see the
/// header comment for the spill and checkpoint contracts. Move-only.
class ChunkedModel {
 public:
  ChunkedModel(const ChunkedModel&) = delete;
  ChunkedModel& operator=(const ChunkedModel&) = delete;
  ChunkedModel(ChunkedModel&&) = default;
  ChunkedModel& operator=(ChunkedModel&&) = default;

  /// Chunks `model`. `keys` are the model's id-ordered packed keys and
  /// `codec` the layout that produced them (both from the explorer).
  /// Frontier states must be a contiguous id tail (the level-synchronous
  /// explorers guarantee it); spills immediately when options.spill.
  static ChunkedModel from_model(const Model& model, const KeyCodec& codec,
                                 const std::vector<PackedKey>& keys, StoreOptions options = {});

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
  PackedKey key(StateId s) const;
  /// Id-ordered copies of every state key (the resume path's seed).
  std::vector<PackedKey> keys() const;

  std::size_t num_chunks() const { return chunks_.size(); }
  std::size_t chunk_states() const { return chunk_states_; }
  const Chunk& chunk(std::size_t i) const { return chunks_[i]; }

  /// Chunking-independent model fingerprint: an FNV-1a stream over every
  /// state's logical content (key words, eater mask, frontier bit, rows) in
  /// id order, prefixed with the shape. Equal fingerprints <=> equal models
  /// (up to 64-bit FNV collisions), regardless of chunk_states and of
  /// whether the model ever hit a cap along the way.
  std::uint64_t fingerprint() const;

  /// Bytes of chunk payload currently resident: heap-owned chunks plus —
  /// under a max_resident_chunks budget — the hot file-backed set; without
  /// a budget, every non-spilled payload (the historical accounting, where
  /// a fully spilled model reads 0).
  std::size_t resident_bytes() const;
  /// High-water mark of the budget-managed hot set (resident_bytes() when
  /// no budget is active) — what the `ctest -L store` residency pin reads.
  std::size_t peak_resident_bytes() const;
  std::size_t spilled_bytes() const;

  /// Spills every resident chunk to options.dir (see Chunk::spill_to).
  void spill();

  /// Rebuilds the contiguous, validated Model (Model::build re-checks the
  /// CSR invariants — a second line of defense after the fingerprints).
  Model materialize() const;

  /// One self-contained fingerprinted file: header + per-chunk fingerprint
  /// table + chunk payloads.
  void save_checkpoint(const std::string& path) const;
  /// Maps `path` read-only and verifies the header against (algo, t) and
  /// every fingerprint against the payloads; throws PreconditionError on
  /// any mismatch (corruption refusal). Chunks view the mapping zero-copy.
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

  int num_phils_ = 0;
  std::size_t num_states_ = 0;
  std::size_t chunk_states_ = 0;
  bool truncated_ = false;
  KeyCodec codec_;
  std::vector<Chunk> chunks_;
  StoreOptions options_;
  /// Process-unique prefix for this model's spill files (see StoreOptions::dir).
  std::uint64_t spill_seq_ = 0;
  /// Checkpoint file mapping backing view chunks; the deleter unmaps.
  std::shared_ptr<const std::uint64_t> file_map_;
  /// Present iff options_.max_resident_chunks > 0 (see detail::Residency).
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

std::vector<bool> reachable_states(const ChunkedModel& model);

std::vector<EndComponent> maximal_end_components(const ChunkedModel& model,
                                                 std::uint64_t avoid_set = ~std::uint64_t{0});

FairProgressResult check_fair_progress(const ChunkedModel& model,
                                       std::uint64_t set_mask = ~std::uint64_t{0});

quant::QuantResult analyze(const ChunkedModel& model,
                           std::uint64_t target_set = ~std::uint64_t{0},
                           quant::QuantOptions options = {});

}  // namespace gdp::mdp::store
