#include "gdp/mdp/store/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "gdp/common/check.hpp"
#include "gdp/mdp/end_components_impl.hpp"
#include "gdp/mdp/fair_progress_impl.hpp"
#include "gdp/mdp/level_explore.hpp"
#include "gdp/mdp/quant/quant_impl.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"

namespace gdp::mdp::store {

namespace {

/// Deterministic-plane store counters: chunk shape is a pure function of
/// (model, chunk_states) and spill/checkpoint traffic of the call sequence,
/// never of scheduling. I/O wall time goes to spans (timing plane).
struct StoreCounters {
  obs::Counter& chunks_written = obs::Registry::global().counter("store.chunks_written");
  obs::Counter& chunk_bytes = obs::Registry::global().counter("store.chunk_bytes");
  obs::Counter& chunks_spilled = obs::Registry::global().counter("store.chunks_spilled");
  obs::Counter& spill_bytes = obs::Registry::global().counter("store.spill_bytes");
  obs::Counter& chunks_loaded = obs::Registry::global().counter("store.chunks_loaded");
  obs::Counter& fingerprint_checks =
      obs::Registry::global().counter("store.fingerprint_verifications");
  obs::Counter& materializations = obs::Registry::global().counter("store.materializations");
  /// Timing plane: which chunk faults and which gets evicted depend on the
  /// interleaving of the parallel kernels' reads — only the verdicts they
  /// feed are deterministic, not the paging traffic.
  obs::Counter& chunk_faults =
      obs::Registry::global().counter("store.chunk_faults", obs::Plane::kTiming);
  obs::Counter& chunk_evictions =
      obs::Registry::global().counter("store.chunk_evictions", obs::Plane::kTiming);
  static StoreCounters& get() {
    static StoreCounters instance;
    return instance;
  }
};

// Chunk payloads round-trip Outcome structs through 64-bit words (bit_cast
// on write, pointer view on read); both directions need this exact shape.
static_assert(sizeof(Outcome) == sizeof(std::uint64_t) && alignof(Outcome) <= alignof(std::uint64_t) &&
                  std::is_trivially_copyable_v<Outcome>,
              "Outcome must be one trivially-copyable 64-bit word");

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kCheckpointMagic = 0x47445053544f5231ULL;  // "GDPSTOR1"
constexpr std::uint64_t kCheckpointVersion = 1;
constexpr std::size_t kCheckpointHeaderWords = 9;

/// FNV-1a over the 8 bytes of one word.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_words(const std::uint64_t* words, std::size_t count) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < count; ++i) h = fnv1a(h, words[i]);
  return h;
}

/// Writes `words` 64-bit words to `path` (overwrite). Throws on I/O errors.
void write_file(const std::string& path, const std::uint64_t* words, std::size_t count) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  GDP_CHECK_MSG(f != nullptr, "store: cannot open " << path << " for writing: "
                                                    << std::strerror(errno));
  const std::size_t written = std::fwrite(words, sizeof(std::uint64_t), count, f);
  const int close_rc = std::fclose(f);
  GDP_CHECK_MSG(written == count && close_rc == 0,
                "store: short write to " << path << " (" << written << "/" << count << " words)");
}

/// Maps `path` read-only. Returns (address, bytes); address is
/// 64-bit-aligned (page-aligned). Throws on I/O errors or empty files.
std::pair<void*, std::size_t> map_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  GDP_CHECK_MSG(fd >= 0, "store: cannot open " << path << ": " << std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0 ||
      static_cast<std::size_t>(st.st_size) % sizeof(std::uint64_t) != 0) {
    ::close(fd);
    GDP_CHECK_MSG(false, "store: " << path << " is empty or not a whole number of words");
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  // The store is the repo's one blessed mmap site: spilled chunks and
  // checkpoints reload on demand through page faults instead of heap reads.
  // gdp-lint: allow(raw-mmap) — read-only spill/checkpoint mapping, unmapped by the owning Chunk/ChunkedModel
  void* addr = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  GDP_CHECK_MSG(addr != MAP_FAILED, "store: mmap of " << path << " failed: "
                                                      << std::strerror(errno));
  return {addr, bytes};
}

void unmap(void* addr, std::size_t bytes) {
  // gdp-lint: allow(raw-mmap) — paired teardown of map_file's mapping
  if (addr != nullptr && addr != MAP_FAILED) ::munmap(addr, bytes);
}

void ensure_dir(const std::string& dir) {
  GDP_CHECK_MSG(!dir.empty(), "store: spilling needs StoreOptions::dir");
  if (::mkdir(dir.c_str(), 0755) != 0) {
    GDP_CHECK_MSG(errno == EEXIST, "store: cannot create " << dir << ": "
                                                           << std::strerror(errno));
  }
}

/// Spill files are prefixed with a process-unique per-model sequence
/// number so several models can share one spill dir without clobbering
/// each other's still-mapped chunk files (an overwrite under a live
/// MAP_PRIVATE mapping silently changes not-yet-faulted pages).
std::atomic<std::uint64_t> g_spill_seq{0};

std::string chunk_path(const std::string& dir, std::uint64_t seq, std::size_t i) {
  return dir + "/m" + std::to_string(seq) + "_chunk_" + std::to_string(i) + ".gdpstore";
}

}  // namespace

// ---------------------------------------------------------------------------
// Chunk
// ---------------------------------------------------------------------------

Chunk& Chunk::operator=(Chunk&& rhs) noexcept {
  if (this != &rhs) {
    release();
    payload_ = rhs.payload_;
    payload_words_ = rhs.payload_words_;
    owned_ = std::move(rhs.owned_);
    mapped_ = rhs.mapped_;
    mapped_bytes_ = rhs.mapped_bytes_;
    if (!owned_.empty()) payload_ = owned_.data();
    rhs.payload_ = nullptr;
    rhs.payload_words_ = 0;
    rhs.mapped_ = nullptr;
    rhs.mapped_bytes_ = 0;
  }
  return *this;
}

void Chunk::release() {
  unmap(mapped_, mapped_bytes_);
  mapped_ = nullptr;
  mapped_bytes_ = 0;
  owned_.clear();
  payload_ = nullptr;
  payload_words_ = 0;
}

Chunk Chunk::own(std::vector<std::uint64_t> payload) {
  GDP_CHECK_MSG(payload.size() >= kHeaderWords, "store: chunk payload shorter than its header");
  Chunk c;
  c.owned_ = std::move(payload);
  c.payload_ = c.owned_.data();
  c.payload_words_ = c.owned_.size();
  return c;
}

Chunk Chunk::view(const std::uint64_t* payload, std::size_t words) {
  GDP_CHECK_MSG(payload != nullptr && words >= kHeaderWords,
                "store: chunk view shorter than its header");
  Chunk c;
  c.payload_ = payload;
  c.payload_words_ = words;
  return c;
}

const Outcome* Chunk::outcomes() const {
  // The payload stores each Outcome's object representation in one word
  // (see the static_assert above); viewing the words as Outcomes is the
  // same-machine inverse of the bit_cast that wrote them.
  return reinterpret_cast<const Outcome*>(outcome_words());
}

std::uint64_t Chunk::fingerprint() const { return fnv1a_words(payload_, payload_words_); }

void Chunk::spill_to(const std::string& path) {
  if (spilled()) return;
  GDP_CHECK_MSG(!owned_.empty(), "store: cannot spill a view chunk (its checkpoint owns the bytes)");
  write_file(path, owned_.data(), owned_.size());
  const auto [addr, bytes] = map_file(path);
  if (bytes != owned_.size() * sizeof(std::uint64_t)) {
    unmap(addr, bytes);
    GDP_CHECK_MSG(false, "store: " << path << " changed size during spill");
  }
  mapped_ = addr;
  mapped_bytes_ = bytes;
  payload_ = static_cast<const std::uint64_t*>(addr);
  std::vector<std::uint64_t>().swap(owned_);  // actually free the heap copy
}

void Chunk::drop_pages() const {
  if (!file_backed()) return;
  // A view chunk sits inside a larger checkpoint mapping, so only whole
  // pages fully inside this payload may be dropped — the edge pages are
  // shared with the neighboring chunks' payloads (a spilled chunk owns its
  // whole page-aligned mapping, and the rounding below keeps it intact).
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(payload_);
  std::uintptr_t hi = lo + payload_bytes();
  lo = (lo + page - 1) & ~(page - 1);
  hi &= ~(page - 1);
  if (lo >= hi) return;
  // On a read-only MAP_PRIVATE file mapping there are no dirty pages to
  // lose: MADV_DONTNEED just returns the page frames, and the next read
  // refaults identical bytes from the file. Racing readers stay correct.
  // gdp-lint: allow(raw-mmap) — residency eviction on map_file's read-only mapping
  ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

// ---------------------------------------------------------------------------
// detail::Residency
// ---------------------------------------------------------------------------

namespace detail {

void Residency::fault(const std::vector<Chunk>& chunks, std::size_t idx) {
  common::MutexLock lock(mu_);
  // Raced with another faulting reader: it already paid for this chunk.
  if (stamps_[idx].load(std::memory_order_relaxed) != 0) return;

  // Heap-owned chunks never page out; stamp them hot once so the fast path
  // short-circuits forever, without charging them to the budget.
  if (!chunks[idx].file_backed()) {
    stamps_[idx].store(++epoch_, std::memory_order_relaxed);
    return;
  }

  // Evict min-stamp (least-recently-faulted) victims until the newcomer
  // fits. The linear scan is fine: faults are rare by design and chunk
  // counts are thousands, not millions.
  while (hot_count_ + 1 > budget_ && hot_count_ > 0) {
    std::size_t victim = stamps_.size();
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
      if (!chunks[i].file_backed()) continue;
      const std::uint64_t stamp = stamps_[i].load(std::memory_order_relaxed);
      if (stamp != 0 && stamp < oldest) {
        oldest = stamp;
        victim = i;
      }
    }
    if (victim == stamps_.size()) break;  // accounting drift would spin forever
    stamps_[victim].store(0, std::memory_order_relaxed);
    chunks[victim].drop_pages();
    --hot_count_;
    hot_bytes_ -= chunks[victim].payload_bytes();
    StoreCounters::get().chunk_evictions.increment();
    obs::timeline::instant("store.chunk_eviction");
  }

  stamps_[idx].store(++epoch_, std::memory_order_relaxed);
  ++hot_count_;
  hot_bytes_ += chunks[idx].payload_bytes();
  if (hot_bytes_ > peak_bytes_) peak_bytes_ = hot_bytes_;
  StoreCounters::get().chunk_faults.increment();
  obs::timeline::instant("store.chunk_fault");
  // Live residency for the heartbeat sampler; timing plane (which chunks
  // fault depends on the read schedule, not on the work).
  static obs::Gauge& resident_chunks =
      obs::Registry::global().gauge("store.resident_chunks", obs::Plane::kTiming);
  static obs::Gauge& resident_bytes =
      obs::Registry::global().gauge("store.resident_bytes", obs::Plane::kTiming);
  resident_chunks.set(hot_count_);
  resident_bytes.set(hot_bytes_);
}

void Residency::reset_cold(const std::vector<Chunk>& chunks) {
  common::MutexLock lock(mu_);
  for (std::size_t i = 0; i < stamps_.size(); ++i) {
    stamps_[i].store(0, std::memory_order_relaxed);
    if (chunks[i].file_backed()) chunks[i].drop_pages();
  }
  hot_count_ = 0;
  hot_bytes_ = 0;
}

std::size_t Residency::hot_bytes() const {
  common::MutexLock lock(mu_);
  return hot_bytes_;
}

std::size_t Residency::peak_bytes() const {
  common::MutexLock lock(mu_);
  return peak_bytes_;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// ChunkedModel
// ---------------------------------------------------------------------------

ChunkedModel ChunkedModel::from_model(const Model& model, const KeyCodec& codec,
                                      const std::vector<PackedKey>& keys, StoreOptions options) {
  GDP_CHECK_MSG(options.chunk_states > 0, "store: chunk_states must be positive");
  GDP_CHECK_MSG(codec.valid() && codec.num_phils() == model.num_phils(),
                "store: codec does not match the model");
  GDP_CHECK_MSG(keys.size() == model.num_states(),
                "store: " << keys.size() << " keys for " << model.num_states() << " states");

  // The store's resume contract needs the level-synchronous invariant:
  // expanded states are an id prefix, frontier states the tail.
  std::size_t expanded = 0;
  while (expanded < model.num_states() && !model.frontier(static_cast<StateId>(expanded))) {
    ++expanded;
  }
  for (std::size_t s = expanded; s < model.num_states(); ++s) {
    GDP_CHECK_MSG(model.frontier(static_cast<StateId>(s)),
                  "store: frontier states must be the id tail (state " << s << " is expanded)");
  }

  ChunkedModel out;
  out.spill_seq_ = g_spill_seq.fetch_add(1, std::memory_order_relaxed);
  out.num_phils_ = model.num_phils();
  out.num_states_ = model.num_states();
  out.chunk_states_ = options.chunk_states;
  out.truncated_ = model.truncated();
  out.codec_ = codec;
  out.options_ = std::move(options);

  const std::size_t n = static_cast<std::size_t>(model.num_phils());
  const std::size_t kw = codec.key_words();
  const std::size_t num_chunks =
      (model.num_states() + out.chunk_states_ - 1) / out.chunk_states_;
  out.chunks_.reserve(num_chunks);

  for (std::size_t ci = 0; ci < num_chunks; ++ci) {
    const std::size_t first = ci * out.chunk_states_;
    const std::size_t count = std::min(out.chunk_states_, model.num_states() - first);

    std::size_t num_outcomes = 0;
    for (std::size_t s = first; s < first + count; ++s) {
      for (std::size_t p = 0; p < n; ++p) {
        const auto [lo, hi] = model.row(static_cast<StateId>(s), static_cast<int>(p));
        num_outcomes += static_cast<std::size_t>(hi - lo);
      }
    }

    std::vector<std::uint64_t> payload;
    payload.reserve(5 + count * n + 1 + num_outcomes + count + (count + 63) / 64 + count * kw);
    payload.push_back(first);
    payload.push_back(count);
    payload.push_back(n);
    payload.push_back(kw);
    payload.push_back(num_outcomes);

    // Chunk-local CSR offsets, then the rows (global next ids).
    std::vector<std::uint64_t> outcome_words;
    outcome_words.reserve(num_outcomes);
    payload.push_back(0);
    const std::size_t offsets_at = payload.size() - 1;
    for (std::size_t s = first; s < first + count; ++s) {
      for (std::size_t p = 0; p < n; ++p) {
        const auto [lo, hi] = model.row(static_cast<StateId>(s), static_cast<int>(p));
        for (const Outcome* o = lo; o != hi; ++o) {
          outcome_words.push_back(std::bit_cast<std::uint64_t>(*o));
        }
        payload.push_back(outcome_words.size());
      }
    }
    GDP_CHECK_MSG(payload.size() - offsets_at == count * n + 1,
                  "store: chunk " << ci << " offset table has the wrong shape");
    payload.insert(payload.end(), outcome_words.begin(), outcome_words.end());

    for (std::size_t s = first; s < first + count; ++s) {
      payload.push_back(model.eaters(static_cast<StateId>(s)));
    }

    std::vector<std::uint64_t> frontier_words((count + 63) / 64, 0);
    for (std::size_t s = first; s < first + count; ++s) {
      if (model.frontier(static_cast<StateId>(s))) {
        frontier_words[(s - first) >> 6] |= std::uint64_t{1} << ((s - first) & 63);
      }
    }
    payload.insert(payload.end(), frontier_words.begin(), frontier_words.end());

    for (std::size_t s = first; s < first + count; ++s) {
      GDP_CHECK_MSG(keys[s].words() == kw,
                    "store: key " << s << " has " << keys[s].words() << " words, layout has " << kw);
      const std::uint64_t* w = keys[s].data();
      payload.insert(payload.end(), w, w + kw);
    }

    StoreCounters::get().chunks_written.increment();
    StoreCounters::get().chunk_bytes.add(payload.size() * sizeof(std::uint64_t));
    out.chunks_.push_back(Chunk::own(std::move(payload)));
  }

  if (out.options_.max_resident_chunks > 0) {
    out.residency_ = std::make_unique<detail::Residency>(out.chunks_.size(),
                                                         out.options_.max_resident_chunks);
  }
  if (out.options_.spill) out.spill();
  return out;
}

PackedKey ChunkedModel::key(StateId s) const {
  PackedKey key;
  key.assign(chunk_of(s).key_run(local_of(s)), codec_.key_words());
  return key;
}

std::vector<PackedKey> ChunkedModel::keys() const {
  std::vector<PackedKey> out;
  out.reserve(num_states_);
  for (std::size_t s = 0; s < num_states_; ++s) out.push_back(key(static_cast<StateId>(s)));
  return out;
}

std::uint64_t ChunkedModel::fingerprint() const {
  const std::size_t kw = codec_.key_words();
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, static_cast<std::uint64_t>(num_phils_));
  h = fnv1a(h, kw);
  h = fnv1a(h, num_states_);
  h = fnv1a(h, truncated_ ? 1 : 0);
  for (const Chunk& c : chunks_) {
    const std::size_t n = static_cast<std::size_t>(c.num_phils());
    const std::uint64_t* offsets = c.offsets();
    const Outcome* rows = c.outcomes();
    for (std::size_t local = 0; local < c.count(); ++local) {
      const std::uint64_t* key_words = c.key_run(local);
      for (std::size_t i = 0; i < kw; ++i) h = fnv1a(h, key_words[i]);
      h = fnv1a(h, c.eaters()[local]);
      h = fnv1a(h, c.frontier(local) ? 1 : 0);
      for (std::size_t p = 0; p < n; ++p) {
        const std::uint64_t lo = offsets[local * n + p];
        const std::uint64_t hi = offsets[local * n + p + 1];
        h = fnv1a(h, hi - lo);
        for (std::uint64_t i = lo; i < hi; ++i) {
          h = fnv1a(h, std::bit_cast<std::uint64_t>(rows[i]));
        }
      }
    }
  }
  return h;
}

std::size_t ChunkedModel::resident_bytes() const {
  std::size_t bytes = 0;
  if (residency_ != nullptr) {
    // Budgeted: heap chunks plus whatever file-backed payload is hot.
    for (const Chunk& c : chunks_) {
      if (!c.file_backed()) bytes += c.payload_bytes();
    }
    return bytes + residency_->hot_bytes();
  }
  // Unbounded (historical accounting): everything except spilled chunks —
  // a fully spilled model reads 0.
  for (const Chunk& c : chunks_) {
    if (!c.spilled()) bytes += c.payload_bytes();
  }
  return bytes;
}

std::size_t ChunkedModel::peak_resident_bytes() const {
  if (residency_ == nullptr) return resident_bytes();
  std::size_t bytes = 0;
  for (const Chunk& c : chunks_) {
    if (!c.file_backed()) bytes += c.payload_bytes();
  }
  return bytes + residency_->peak_bytes();
}

std::size_t ChunkedModel::spilled_bytes() const {
  std::size_t bytes = 0;
  for (const Chunk& c : chunks_) {
    if (c.spilled()) bytes += c.payload_words() * sizeof(std::uint64_t);
  }
  return bytes;
}

void ChunkedModel::spill() {
  obs::TimedSpan span("store.spill");
  ensure_dir(options_.dir);
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    if (chunks_[i].spilled()) continue;
    chunks_[i].spill_to(chunk_path(options_.dir, spill_seq_, i));
    StoreCounters::get().chunks_spilled.increment();
    StoreCounters::get().spill_bytes.add(chunks_[i].payload_words() * sizeof(std::uint64_t));
    obs::timeline::instant("store.chunk_spill");
  }
  // Everything is file-backed now; start the budget from an all-cold set so
  // the first sweep's faults are what page the working set in.
  if (residency_ != nullptr) residency_->reset_cold(chunks_);
}

Model ChunkedModel::materialize() const {
  obs::TimedSpan span("store.materialize");
  StoreCounters::get().materializations.increment();
  const std::size_t n = static_cast<std::size_t>(num_phils_);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(num_states_ * n + 1);
  offsets.push_back(0);
  std::vector<Outcome> outcomes;
  std::vector<std::uint64_t> eater_masks;
  eater_masks.reserve(num_states_);
  std::vector<bool> frontier_flags;
  frontier_flags.reserve(num_states_);

  for (const Chunk& c : chunks_) {
    const std::uint64_t* local_offsets = c.offsets();
    const Outcome* rows = c.outcomes();
    const std::uint64_t base = offsets.back();
    const std::size_t row_count = c.count() * n;
    for (std::size_t r = 0; r < row_count; ++r) offsets.push_back(base + local_offsets[r + 1]);
    outcomes.insert(outcomes.end(), rows, rows + c.num_outcomes());
    for (std::size_t local = 0; local < c.count(); ++local) {
      eater_masks.push_back(c.eaters()[local]);
      frontier_flags.push_back(c.frontier(local));
    }
  }
  return Model::build(num_phils_, std::move(offsets), std::move(outcomes), std::move(eater_masks),
                      std::move(frontier_flags), truncated_);
}

void ChunkedModel::save_checkpoint(const std::string& path) const {
  obs::TimedSpan span("store.checkpoint_save");
  std::vector<std::uint64_t> blob;
  std::size_t payload_total = 0;
  for (const Chunk& c : chunks_) payload_total += c.payload_words();
  blob.reserve(kCheckpointHeaderWords + 2 * chunks_.size() + payload_total);

  blob.push_back(kCheckpointMagic);
  blob.push_back(kCheckpointVersion);
  blob.push_back(static_cast<std::uint64_t>(num_phils_));
  blob.push_back(codec_.key_words());
  blob.push_back(chunk_states_);
  blob.push_back(num_states_);
  blob.push_back(truncated_ ? 1 : 0);
  blob.push_back(chunks_.size());
  blob.push_back(fingerprint());
  for (const Chunk& c : chunks_) blob.push_back(c.payload_words());
  for (const Chunk& c : chunks_) blob.push_back(c.fingerprint());
  for (const Chunk& c : chunks_) {
    blob.insert(blob.end(), c.payload(), c.payload() + c.payload_words());
  }
  write_file(path, blob.data(), blob.size());
}

ChunkedModel ChunkedModel::load_checkpoint(const algos::Algorithm& algo, const graph::Topology& t,
                                           const std::string& path, StoreOptions options) {
  obs::TimedSpan span("store.checkpoint_load");
  const auto [addr, bytes] = map_file(path);
  std::shared_ptr<const std::uint64_t> mapping(
      static_cast<const std::uint64_t*>(addr),
      [bytes = bytes](const std::uint64_t* p) { unmap(const_cast<std::uint64_t*>(p), bytes); });
  const std::uint64_t* words = mapping.get();
  const std::size_t total_words = bytes / sizeof(std::uint64_t);

  GDP_CHECK_MSG(total_words >= kCheckpointHeaderWords, "store: " << path << " is not a checkpoint");
  GDP_CHECK_MSG(words[0] == kCheckpointMagic && words[1] == kCheckpointVersion,
                "store: " << path << " has the wrong magic/version (not a v" << kCheckpointVersion
                          << " checkpoint)");

  const KeyCodec codec(algo, t);
  GDP_CHECK_MSG(words[2] == static_cast<std::uint64_t>(codec.num_phils()) &&
                    words[3] == codec.key_words(),
                "store: " << path << " was written for a different (algorithm, topology) shape");

  ChunkedModel out;
  out.spill_seq_ = g_spill_seq.fetch_add(1, std::memory_order_relaxed);
  out.num_phils_ = static_cast<int>(words[2]);
  out.chunk_states_ = words[4];
  out.num_states_ = words[5];
  out.truncated_ = words[6] != 0;
  out.codec_ = codec;
  out.file_map_ = mapping;
  GDP_CHECK_MSG(out.chunk_states_ > 0, "store: " << path << " has zero chunk_states");

  const std::size_t num_chunks = words[7];
  const std::uint64_t stored_model_fp = words[8];
  const std::uint64_t* sizes = words + kCheckpointHeaderWords;
  const std::uint64_t* fps = sizes + num_chunks;
  std::size_t cursor = kCheckpointHeaderWords + 2 * num_chunks;

  std::size_t states_seen = 0;
  out.chunks_.reserve(num_chunks);
  for (std::size_t ci = 0; ci < num_chunks; ++ci) {
    GDP_CHECK_MSG(cursor + sizes[ci] <= total_words,
                  "store: " << path << " truncated inside chunk " << ci);
    Chunk c = Chunk::view(words + cursor, sizes[ci]);
    StoreCounters::get().fingerprint_checks.increment();
    GDP_CHECK_MSG(c.fingerprint() == fps[ci],
                  "store: chunk " << ci << " of " << path << " fails its fingerprint (corrupt)");
    StoreCounters::get().chunks_loaded.increment();
    GDP_CHECK_MSG(c.first() == states_seen && c.count() > 0 &&
                      c.num_phils() == out.num_phils_ && c.key_words() == codec.key_words(),
                  "store: chunk " << ci << " of " << path << " has an inconsistent header");
    states_seen += c.count();
    cursor += sizes[ci];
    out.chunks_.push_back(std::move(c));
  }
  GDP_CHECK_MSG(cursor == total_words, "store: " << path << " has trailing bytes");
  GDP_CHECK_MSG(states_seen == out.num_states_,
                "store: " << path << " chunks cover " << states_seen << " states, header says "
                          << out.num_states_);
  StoreCounters::get().fingerprint_checks.increment();
  GDP_CHECK_MSG(out.fingerprint() == stored_model_fp,
                "store: " << path << " fails its model fingerprint (corrupt)");
  out.options_ = std::move(options);
  out.options_.chunk_states = out.chunk_states_;  // the file's layout wins
  if (out.options_.max_resident_chunks > 0) {
    out.residency_ = std::make_unique<detail::Residency>(out.chunks_.size(),
                                                         out.options_.max_resident_chunks);
    // Fingerprint verification touched every page; drop them so the model
    // starts cold and the budget governs from the first read on.
    out.residency_->reset_cold(out.chunks_);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exploration + analysis entry points
// ---------------------------------------------------------------------------

ChunkedModel explore(const algos::Algorithm& algo, const graph::Topology& t,
                     StoreOptions store_options, CheckOptions options) {
  mdp::detail::LevelExplorer explorer(algo, t);
  explorer.run(options.max_states, options.threads);
  const KeyCodec codec = explorer.codec();
  std::vector<PackedKey> keys;
  const Model model = explorer.take_model(nullptr, &keys);
  return ChunkedModel::from_model(model, codec, keys, std::move(store_options));
}

ChunkedModel resume(const algos::Algorithm& algo, const graph::Topology& t,
                    const ChunkedModel& checkpoint, StoreOptions store_options,
                    CheckOptions options) {
  mdp::detail::LevelExplorer explorer(algo, t);
  // Chunk-native restore: the explorer re-seeds from per-chunk key runs,
  // eater masks, frontier bits, and rows through the read API — the
  // checkpoint is never materialized ("store.materializations" stays 0,
  // pinned by `ctest -L store`).
  explorer.restore(checkpoint, checkpoint.keys());
  explorer.run(options.max_states, options.threads);
  const KeyCodec codec = explorer.codec();
  std::vector<PackedKey> keys;
  const Model model = explorer.take_model(nullptr, &keys);
  return ChunkedModel::from_model(model, codec, keys, std::move(store_options));
}

// Chunk-native instantiations of the shared kernel templates (see the
// header's analysis contract): same definitions as the Model path, so
// complete models produce byte-identical verdicts at every thread count and
// truncated models keep the exact refusal semantics — without ever
// materializing the contiguous CSR.

std::vector<bool> reachable_states(const ChunkedModel& model) {
  return mdp::detail::reachable_states_t(model);
}

std::vector<EndComponent> maximal_end_components(const ChunkedModel& model,
                                                 std::uint64_t avoid_set) {
  return mdp::detail::maximal_end_components_t(model, avoid_set);
}

FairProgressResult check_fair_progress(const ChunkedModel& model, std::uint64_t set_mask) {
  return mdp::detail::verdict_from_mecs_t(model, set_mask,
                                          maximal_end_components(model, set_mask),
                                          reachable_states(model));
}

quant::QuantResult analyze(const ChunkedModel& model, std::uint64_t target_set,
                           quant::QuantOptions options) {
  return quant::detail::analyze_t(model, target_set, options);
}

}  // namespace gdp::mdp::store
