#include "gdp/mdp/store/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <type_traits>

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

static_assert(std::is_trivially_copyable_v<Chunk>, "a Chunk is a view: it owns nothing");

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

/// Maps `path` read-only — the one mapper, shared by load_checkpoint()
/// and spill(). The address is page-aligned (so 64-bit-aligned). Throws on
/// I/O errors, empty files and files that are not a whole number of words.
detail::FileMap map_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  GDP_CHECK_MSG(fd >= 0, "store: cannot open " << path << ": " << std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0 ||
      static_cast<std::size_t>(st.st_size) % sizeof(std::uint64_t) != 0) {
    ::close(fd);
    GDP_CHECK_MSG(false, "store: " << path << " is empty or not a whole number of words");
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  // The store is the repo's one blessed mmap site: spilled models and
  // checkpoints reload on demand through page faults instead of heap reads.
  // gdp-lint: allow(raw-mmap) — read-only spill/checkpoint mapping, unmapped by detail::Unmap
  void* addr = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  GDP_CHECK_MSG(addr != MAP_FAILED, "store: mmap of " << path << " failed: "
                                                      << std::strerror(errno));
  return detail::FileMap(static_cast<const std::uint64_t*>(addr), detail::Unmap{bytes});
}

std::span<const std::uint64_t> mapped_words(const detail::FileMap& file) {
  return {file.get(), file.get_deleter().bytes / sizeof(std::uint64_t)};
}

void ensure_dir(const std::string& dir) {
  GDP_CHECK_MSG(!dir.empty(), "store: spilling needs StoreOptions::dir");
  if (::mkdir(dir.c_str(), 0755) != 0) {
    GDP_CHECK_MSG(errno == EEXIST, "store: cannot create " << dir << ": "
                                                           << std::strerror(errno));
  }
}

/// Spill files are named with a process-unique sequence number (a model
/// spills at most once) so several models can share one spill dir without
/// clobbering each other's still-mapped files (an overwrite under a live
/// MAP_PRIVATE mapping silently changes not-yet-faulted pages).
std::atomic<std::uint64_t> g_spill_seq{0};

}  // namespace

// ---------------------------------------------------------------------------
// Chunk
// ---------------------------------------------------------------------------

Chunk::Chunk(const std::uint64_t* payload, std::size_t words)
    : payload_(payload), payload_words_(words) {
  GDP_DCHECK(words >= kHeaderWords &&
             words == layout_words(count(), static_cast<std::size_t>(num_phils()),
                                   num_outcomes(), key_words()));
  offsets_ = payload_ + kHeaderWords;
  const std::uint64_t* outcome_words =
      offsets_ + count() * static_cast<std::size_t>(num_phils()) + 1;
  // The payload stores each Outcome's object representation in one word
  // (see the static_assert above); viewing the words as Outcomes is the
  // same-machine inverse of the bit_cast that wrote them.
  outcomes_ = reinterpret_cast<const Outcome*>(outcome_words);
  eaters_ = outcome_words + num_outcomes();
  frontier_ = eaters_ + count();
  keys_ = frontier_ + (count() + 63) / 64;
}

Chunk::Chunk(const Chunk& chunk, const std::uint64_t* payload) : Chunk(chunk) {
  auto moved = [&](const std::uint64_t* section) { return payload + (section - chunk.payload_); };
  payload_ = payload;
  offsets_ = moved(chunk.offsets_);
  outcomes_ = reinterpret_cast<const Outcome*>(
      moved(reinterpret_cast<const std::uint64_t*>(chunk.outcomes_)));
  eaters_ = moved(chunk.eaters_);
  frontier_ = moved(chunk.frontier_);
  keys_ = moved(chunk.keys_);
}

std::uint64_t Chunk::fingerprint() const { return fnv1a_words(payload_, payload_words_); }

// ---------------------------------------------------------------------------
// detail::Unmap, detail::Residency
// ---------------------------------------------------------------------------

namespace detail {

void Unmap::operator()(const std::uint64_t* words) const {
  // gdp-lint: allow(raw-mmap) — paired teardown of map_file's mapping
  ::munmap(const_cast<std::uint64_t*>(words), bytes);
}

Residency::Residency(const FileMap& file, std::size_t num_chunks, std::size_t budget)
    : file_(mapped_words(file)), budget_(budget == 0 ? 1 : budget), stamps_(num_chunks) {
  drop_pages(file_);
}

void Residency::drop_pages(std::span<const std::uint64_t> words) const {
  GDP_CHECK_MSG(words.data() >= file_.data() &&
                    words.data() + words.size() <= file_.data() + file_.size(),
                "store: page drop outside the model's file mapping");
  // Only whole pages fully inside the range may be dropped — a chunk's edge
  // pages are shared with its neighbors' payloads.
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(words.data());
  std::uintptr_t hi = lo + words.size_bytes();
  lo = (lo + page - 1) & ~(page - 1);
  hi &= ~(page - 1);
  if (lo >= hi) return;
  // On a read-only MAP_PRIVATE file mapping there are no dirty pages to
  // lose: MADV_DONTNEED just returns the page frames, and the next read
  // refaults identical bytes from the file. Racing readers stay correct.
  // gdp-lint: allow(raw-mmap) — residency eviction on map_file's read-only mapping
  ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

void Residency::fault(const std::vector<Chunk>& chunks, std::size_t idx) {
  common::MutexLock lock(mu_);
  // Raced with another faulting reader: it already paid for this chunk.
  if (stamps_[idx].load(std::memory_order_relaxed) != 0) return;

  // Evict min-stamp (least-recently-faulted) victims until the newcomer
  // fits. The linear scan is fine: faults are rare by design and chunk
  // counts are thousands, not millions.
  while (hot_count_ + 1 > budget_ && hot_count_ > 0) {
    std::size_t victim = stamps_.size();
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
      const std::uint64_t stamp = stamps_[i].load(std::memory_order_relaxed);
      if (stamp != 0 && stamp < oldest) {
        oldest = stamp;
        victim = i;
      }
    }
    if (victim == stamps_.size()) break;  // accounting drift would spin forever
    stamps_[victim].store(0, std::memory_order_relaxed);
    drop_pages(chunks[victim].payload());
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
                                      std::span<const std::uint64_t> keys,
                                      StoreOptions options) {
  GDP_CHECK_MSG(options.chunk_states > 0, "store: chunk_states must be positive");
  GDP_CHECK_MSG(codec.valid() && codec.num_phils() == model.num_phils(),
                "store: codec does not match the model");
  GDP_CHECK_MSG(keys.size() == model.num_states() * codec.key_words(),
                "store: " << keys.size() << " key words for " << model.num_states()
                          << " states of " << codec.key_words() << " words");

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
  auto count_of = [&](std::size_t ci) {
    return std::min(out.chunk_states_, model.num_states() - ci * out.chunk_states_);
  };
  // The model's rows are one contiguous CSR run, so a chunk's outcomes are
  // the span from its first row's begin to its last row's end.
  auto rows_of = [&](std::size_t ci) {
    const std::size_t first = ci * out.chunk_states_;
    const std::size_t last = first + count_of(ci) - 1;
    return std::pair{model.row(static_cast<StateId>(first), 0).first,
                     model.row(static_cast<StateId>(last), static_cast<int>(n) - 1).second};
  };

  // Size every chunk first: a heap body is allocated once, and a spill
  // file's size table precedes the payloads.
  std::vector<std::uint64_t> sizes(num_chunks);
  for (std::size_t ci = 0; ci < num_chunks; ++ci) {
    const auto [begin, end] = rows_of(ci);
    sizes[ci] = Chunk::layout_words(count_of(ci), n, static_cast<std::size_t>(end - begin), kw);
  }
  out.chunks_.reserve(num_chunks);

  // Lays chunk ci's payload out at `w` and appends its view.
  auto encode = [&](std::size_t ci, std::uint64_t* w) {
    const std::size_t first = ci * out.chunk_states_;
    const std::size_t count = count_of(ci);
    const auto [begin, end] = rows_of(ci);
    std::uint64_t* const payload = w;
    *w++ = first;
    *w++ = count;
    *w++ = n;
    *w++ = kw;
    *w++ = static_cast<std::uint64_t>(end - begin);

    // Chunk-local CSR offsets, then the rows (global next ids).
    *w++ = 0;
    for (std::size_t s = first; s < first + count; ++s) {
      for (std::size_t p = 0; p < n; ++p) {
        *w++ = static_cast<std::uint64_t>(
            model.row(static_cast<StateId>(s), static_cast<int>(p)).second - begin);
      }
    }
    for (const Outcome* o = begin; o != end; ++o) *w++ = std::bit_cast<std::uint64_t>(*o);

    for (std::size_t s = first; s < first + count; ++s) {
      *w++ = model.eaters(static_cast<StateId>(s));
    }

    // Frontier bits, packed 64 per word.
    const std::size_t frontier_words = (count + 63) / 64;
    std::fill(w, w + frontier_words, 0);
    for (std::size_t s = first; s < first + count; ++s) {
      if (model.frontier(static_cast<StateId>(s))) {
        w[(s - first) >> 6] |= std::uint64_t{1} << ((s - first) & 63);
      }
    }
    w += frontier_words;

    const auto key_run = keys.subspan(first * kw, count * kw);
    GDP_DCHECK(static_cast<std::size_t>(w - payload) + key_run.size() == sizes[ci]);
    std::copy(key_run.begin(), key_run.end(), w);

    StoreCounters::get().chunks_written.increment();
    StoreCounters::get().chunk_bytes.add(sizes[ci] * sizeof(std::uint64_t));
    out.chunks_.emplace_back(payload, sizes[ci]);
  };

  if (out.options_.spill) {
    // Straight to the spill file, one chunk at a time through a reused
    // buffer: the model never has a heap body.
    std::vector<std::uint64_t> scratch(*std::max_element(sizes.begin(), sizes.end()));
    out.spill_file(sizes, [&](std::size_t ci) {
      encode(ci, scratch.data());
      return std::span<const std::uint64_t>(scratch.data(), sizes[ci]);
    });
  } else {
    out.heap_.resize(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}));
    std::uint64_t* w = out.heap_.data();
    for (std::size_t ci = 0; ci < num_chunks; ++ci) {
      encode(ci, w);
      w += sizes[ci];
    }
    out.body_ = out.heap_;
  }
  return out;
}

PackedKey ChunkedModel::key(StateId s) const {
  PackedKey key;
  key.assign(chunk_of(s).key_run(local_of(s)), codec_.key_words());
  return key;
}

std::vector<std::uint64_t> ChunkedModel::flat_keys() const {
  const std::size_t kw = codec_.key_words();
  std::vector<std::uint64_t> out;
  out.reserve(num_states_ * kw);
  for (std::size_t s = 0; s < num_states_; ++s) {
    const std::uint64_t* w = chunk_of(static_cast<StateId>(s)).key_run(local_of(static_cast<StateId>(s)));
    out.insert(out.end(), w, w + kw);
  }
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
  if (file_ == nullptr) return body_.size_bytes();
  if (residency_ != nullptr) return residency_->hot_bytes();
  return spilled_ ? 0 : body_.size_bytes();
}

std::size_t ChunkedModel::peak_resident_bytes() const {
  return residency_ != nullptr ? residency_->peak_bytes() : resident_bytes();
}

std::size_t ChunkedModel::spilled_bytes() const { return spilled_ ? body_.size_bytes() : 0; }

void ChunkedModel::write_file(const std::string& path, std::span<const std::uint64_t> sizes,
                              bool seal, const PayloadSource& payload) const {
  std::vector<std::uint64_t> head = {kCheckpointMagic,
                                     kCheckpointVersion,
                                     static_cast<std::uint64_t>(num_phils_),
                                     codec_.key_words(),
                                     chunk_states_,
                                     num_states_,
                                     truncated_ ? std::uint64_t{1} : 0,
                                     sizes.size(),
                                     seal ? fingerprint() : 0};
  head.insert(head.end(), sizes.begin(), sizes.end());
  for (std::size_t ci = 0; ci < sizes.size(); ++ci) {
    head.push_back(seal ? chunks_[ci].fingerprint() : 0);
  }

  // Few large, aligned writes let the page cache hold the file in large
  // folios, so a chunk evicted under a residency budget refaults in a few
  // faults; chunk-sized writes made bounded sweeps ~2x slower on ext4.
  std::vector<char> buffer(std::size_t{4} << 20);  // outlives `f`
  auto close = [](std::FILE* file) { std::fclose(file); };  // on a throwing `payload`
  std::unique_ptr<std::FILE, decltype(close)> f(std::fopen(path.c_str(), "wb"), close);
  GDP_CHECK_MSG(f != nullptr, "store: cannot open " << path << " for writing: "
                                                    << std::strerror(errno));
  std::setvbuf(f.get(), buffer.data(), _IOFBF, buffer.size());
  std::size_t written = std::fwrite(head.data(), sizeof(std::uint64_t), head.size(), f.get());
  for (std::size_t ci = 0; ci < sizes.size(); ++ci) {
    const std::span<const std::uint64_t> words = payload(ci);
    written += std::fwrite(words.data(), sizeof(std::uint64_t), words.size(), f.get());
  }
  const int close_rc = std::fclose(f.release());
  const std::size_t expected = std::accumulate(sizes.begin(), sizes.end(), head.size());
  GDP_CHECK_MSG(written == expected && close_rc == 0,
                "store: short write to " << path << " (" << written << "/" << expected
                                         << " words)");
}

std::vector<std::uint64_t> ChunkedModel::chunk_sizes() const {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(chunks_.size());
  for (const Chunk& c : chunks_) sizes.push_back(c.payload().size());
  return sizes;
}

void ChunkedModel::adopt_file(detail::FileMap file) {
  body_ = mapped_words(file).subspan(kCheckpointHeaderWords + 2 * chunks_.size());
  file_ = std::move(file);
  std::vector<std::uint64_t>().swap(heap_);  // actually free a heap body
  if (options_.max_resident_chunks > 0) {
    residency_ =
        std::make_unique<detail::Residency>(file_, chunks_.size(), options_.max_resident_chunks);
  }
}

void ChunkedModel::spill() {
  if (file_ != nullptr) return;
  spill_file(chunk_sizes(), [this](std::size_t ci) { return chunks_[ci].payload(); });
}

void ChunkedModel::spill_file(std::span<const std::uint64_t> sizes, const PayloadSource& payload) {
  obs::Span span("store.spill");
  ensure_dir(options_.dir);
  const std::string path =
      options_.dir + "/m" + std::to_string(g_spill_seq.fetch_add(1, std::memory_order_relaxed)) +
      ".gdpstore";
  write_file(path, sizes, /*seal=*/false, payload);
  detail::FileMap file = map_file(path);
  const std::size_t header_words = kCheckpointHeaderWords + 2 * sizes.size();
  GDP_CHECK_MSG(mapped_words(file).size() ==
                    std::accumulate(sizes.begin(), sizes.end(), header_words),
                "store: " << path << " changed size during spill");
  // Re-point every view at its payload's place in the file. This reads no
  // payload word, so no page of the fresh mapping faults in.
  const std::uint64_t* at = file.get() + header_words;
  for (Chunk& c : chunks_) {
    c = Chunk(c, at);
    at += c.payload().size();
  }
  adopt_file(std::move(file));
  spilled_ = true;
  StoreCounters::get().chunks_spilled.add(chunks_.size());
  StoreCounters::get().spill_bytes.add(body_.size_bytes());
}

Model ChunkedModel::materialize() const {
  obs::Span span("store.materialize");
  StoreCounters::get().materializations.increment();
  const std::size_t n = static_cast<std::size_t>(num_phils_);
  // The Model's own storage is filled in place, each array reserved at its
  // exact size, so the materialized model exists once.
  std::size_t num_outcomes = 0;
  for (const Chunk& c : chunks_) num_outcomes += c.num_outcomes();
  common::GrowArray<std::uint64_t> offsets;
  offsets.reserve(num_states_ * n + 1);
  offsets.push_back(0);
  common::GrowArray<Outcome> outcomes;
  outcomes.reserve(num_outcomes);
  common::GrowArray<std::uint64_t> eater_masks;
  eater_masks.reserve(num_states_);
  std::vector<bool> frontier_flags;
  frontier_flags.reserve(num_states_);

  for (const Chunk& c : chunks_) {
    const std::uint64_t* local_offsets = c.offsets();
    const std::uint64_t base = offsets.back();
    const std::size_t row_count = c.count() * n;
    std::uint64_t* const ends = offsets.grow(row_count);
    for (std::size_t r = 0; r < row_count; ++r) ends[r] = base + local_offsets[r + 1];
    outcomes.append(c.outcomes(), c.outcomes() + c.num_outcomes());
    eater_masks.append(c.eaters(), c.eaters() + c.count());
    for (std::size_t local = 0; local < c.count(); ++local) {
      frontier_flags.push_back(c.frontier(local));
    }
  }
  return Model::build(num_phils_, std::move(offsets), std::move(outcomes), std::move(eater_masks),
                      std::move(frontier_flags), truncated_);
}

void ChunkedModel::save_checkpoint(const std::string& path) const {
  obs::Span span("store.checkpoint_save");
  write_file(path, chunk_sizes(), /*seal=*/true,
             [this](std::size_t ci) { return chunks_[ci].payload(); });
}

ChunkedModel ChunkedModel::load_checkpoint(const algos::Algorithm& algo, const graph::Topology& t,
                                           const std::string& path, StoreOptions options) {
  obs::Span span("store.checkpoint_load");
  detail::FileMap file = map_file(path);
  const std::uint64_t* words = file.get();
  const std::size_t total_words = mapped_words(file).size();

  GDP_CHECK_MSG(total_words >= kCheckpointHeaderWords, "store: " << path << " is not a checkpoint");
  GDP_CHECK_MSG(words[0] == kCheckpointMagic && words[1] == kCheckpointVersion,
                "store: " << path << " has the wrong magic/version (not a v" << kCheckpointVersion
                          << " checkpoint)");

  const KeyCodec codec(algo, t);
  GDP_CHECK_MSG(words[2] == static_cast<std::uint64_t>(codec.num_phils()) &&
                    words[3] == codec.key_words(),
                "store: " << path << " was written for a different (algorithm, topology) shape");

  ChunkedModel out;
  out.num_phils_ = static_cast<int>(words[2]);
  out.chunk_states_ = words[4];
  out.num_states_ = words[5];
  out.truncated_ = words[6] != 0;
  out.codec_ = codec;
  GDP_CHECK_MSG(out.chunk_states_ > 0, "store: " << path << " has zero chunk_states");

  const std::size_t num_chunks = words[7];
  const std::uint64_t stored_model_fp = words[8];
  // Every state takes at least one payload word (its eater mask), and every
  // chunk two table words: bound both before either is used to index.
  GDP_CHECK_MSG(num_chunks <= (total_words - kCheckpointHeaderWords) / 2 &&
                    out.num_states_ <= total_words,
                "store: " << path << " has an impossible chunk or state count");
  const std::uint64_t* sizes = words + kCheckpointHeaderWords;
  const std::uint64_t* fps = sizes + num_chunks;
  std::size_t cursor = kCheckpointHeaderWords + 2 * num_chunks;

  const std::size_t np = static_cast<std::size_t>(out.num_phils_);
  // Eater bits at or above num_phils name no philosopher.
  const std::uint64_t foreign_eaters = np >= 64 ? 0 : ~std::uint64_t{0} << np;
  std::size_t states_seen = 0;
  std::size_t frontier_from = out.num_states_;  // first frontier state, if any
  mdp::detail::DiscoveryOrder order(out.num_states_);
  out.chunks_.reserve(num_chunks);
  for (std::size_t ci = 0; ci < num_chunks; ++ci) {
    GDP_CHECK_MSG(sizes[ci] >= Chunk::kHeaderWords && sizes[ci] <= total_words - cursor,
                  "store: " << path << " truncated inside chunk " << ci);
    const std::uint64_t* payload = words + cursor;
    StoreCounters::get().fingerprint_checks.increment();
    GDP_CHECK_MSG(fnv1a_words(payload, sizes[ci]) == fps[ci],
                  "store: chunk " << ci << " of " << path << " fails its fingerprint (corrupt)");
    StoreCounters::get().chunks_loaded.increment();
    // Structure, while the chunk's pages are hot from the fingerprint: a
    // file with recomputed fingerprints must not lead any reader out of
    // the chunk. The header (first, count, num_phils, key_words,
    // num_outcomes) is checked before the view is made; count and
    // num_outcomes are bounded by the payload length first, so the layout
    // sum cannot overflow.
    const std::size_t count = payload[1];
    const std::size_t num_outcomes = payload[4];
    GDP_CHECK_MSG(payload[0] == states_seen && count > 0 &&
                      count <= out.num_states_ - states_seen && payload[2] == np &&
                      payload[3] == codec.key_words(),
                  "store: chunk " << ci << " of " << path << " has an inconsistent header");
    GDP_CHECK_MSG(count <= sizes[ci] && num_outcomes <= sizes[ci] &&
                      sizes[ci] == Chunk::layout_words(count, np, num_outcomes, payload[3]),
                  "store: chunk " << ci << " of " << path
                                  << " has a payload length its header does not imply");
    const Chunk c(payload, sizes[ci]);
    const std::uint64_t* offsets = c.offsets();
    const std::size_t rows = count * np;
    GDP_CHECK_MSG(offsets[0] == 0 && offsets[rows] == num_outcomes,
                  "store: chunk " << ci << " of " << path
                                  << " has offsets that do not span its outcomes");
    for (std::size_t r = 0; r < rows; ++r) {
      GDP_CHECK_MSG(offsets[r] <= offsets[r + 1],
                    "store: chunk " << ci << " of " << path << " has offsets not monotone at row "
                                    << r);
    }
    for (std::size_t local = 0; local < count; ++local) {
      const std::size_t s = states_seen + local;
      const Outcome* begin = c.outcomes() + offsets[local * np];
      const Outcome* end = c.outcomes() + offsets[(local + 1) * np];
      for (const Outcome* o = begin; o != end; ++o) {
        GDP_CHECK_MSG(o->next < out.num_states_, "store: chunk " << ci << " of " << path
                                                                 << " targets unknown state "
                                                                 << o->next);
      }
      GDP_CHECK_MSG(order.feed(begin, end),
                    "store: " << path << " is not rooted: state " << s
                              << " has no incoming outcome from a lower id");
      GDP_CHECK_MSG((c.eaters()[local] & foreign_eaters) == 0,
                    "store: " << path << " has an eater mask beyond num_phils at state " << s);
      if (c.frontier(local)) {
        if (frontier_from == out.num_states_) frontier_from = s;
        GDP_CHECK_MSG(begin == end,
                      "store: " << path << " has rows on frontier state " << s);
      } else {
        GDP_CHECK_MSG(frontier_from == out.num_states_,
                      "store: " << path << " has a frontier that is not an id tail: state " << s
                                << " is expanded after frontier state " << frontier_from);
      }
    }
    states_seen += count;
    cursor += sizes[ci];
    out.chunks_.push_back(c);
  }
  GDP_CHECK_MSG(cursor == total_words, "store: " << path << " has trailing bytes");
  GDP_CHECK_MSG(states_seen == out.num_states_,
                "store: " << path << " chunks cover " << states_seen << " states, header says "
                          << out.num_states_);
  GDP_CHECK_MSG(out.truncated_ == (frontier_from < out.num_states_),
                "store: " << path << " has a truncated flag that disagrees with its "
                          << out.num_states_ - frontier_from << " frontier states");
  StoreCounters::get().fingerprint_checks.increment();
  GDP_CHECK_MSG(out.fingerprint() == stored_model_fp,
                "store: " << path << " fails its model fingerprint (corrupt)");
  out.options_ = std::move(options);
  out.options_.chunk_states = out.chunk_states_;  // the file's layout wins
  // Fingerprint verification touched every page; a residency budget drops
  // them so the model starts cold and the budget governs from the first read.
  out.adopt_file(std::move(file));
  return out;
}

// ---------------------------------------------------------------------------
// Exploration + analysis entry points
// ---------------------------------------------------------------------------

ChunkedModel explore(const algos::Algorithm& algo, const graph::Topology& t,
                     StoreOptions store_options, CheckOptions options) {
  mdp::detail::LevelExplorer explorer(algo, t);
  explorer.run(options.max_states, options.threads);
  StateIndex index;
  const Model model = explorer.take_model(&index);
  return ChunkedModel::from_model(model, index.codec(), index.flat_keys(),
                                  std::move(store_options));
}

ChunkedModel resume(const algos::Algorithm& algo, const graph::Topology& t,
                    const ChunkedModel& checkpoint, StoreOptions store_options,
                    CheckOptions options) {
  mdp::detail::LevelExplorer explorer(algo, t);
  // Chunk-native restore: the explorer re-seeds from per-chunk key runs,
  // eater masks, frontier bits, and rows through the read API — the
  // checkpoint is never materialized ("store.materializations" stays 0,
  // pinned by `ctest -L store`).
  explorer.restore(checkpoint, checkpoint.flat_keys());
  explorer.run(options.max_states, options.threads);
  StateIndex index;
  const Model model = explorer.take_model(&index);
  return ChunkedModel::from_model(model, index.codec(), index.flat_keys(),
                                  std::move(store_options));
}

// Chunk-native instantiations of the shared kernel templates (see the
// header's analysis contract): same definitions as the Model path, so
// complete models produce byte-identical verdicts at every thread count and
// truncated models keep the exact refusal semantics — without ever
// materializing the contiguous CSR.

std::vector<EndComponent> maximal_end_components(const ChunkedModel& model,
                                                 std::uint64_t avoid_set) {
  return mdp::detail::maximal_end_components_t(model, avoid_set);
}

FairProgressResult check_fair_progress(const ChunkedModel& model, std::uint64_t set_mask) {
  return mdp::detail::check_fair_progress_t(model, set_mask);
}

quant::QuantResult analyze(const ChunkedModel& model, std::uint64_t target_set,
                           quant::QuantOptions options) {
  return quant::detail::analyze_t(model, target_set, options);
}

}  // namespace gdp::mdp::store
