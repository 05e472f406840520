// Packed fixed-width state keys for the MDP explorers.
//
// SimState::encode's variable-length byte vectors (>= 13 bytes per fork plus
// guest-book ranks) are stored three times over during exploration — intern
// tables, frontier copies, renumbering logs — and are the memory ceiling for
// >10M-state models. KeyCodec replaces them with a topology/algorithm-aware
// bit layout computed once per (algorithm, topology):
//
//   per fork        holder+1            in bit_width(n) bits   (0 = free)
//                   nr                  in bit_width(m) bits   GDP only
//                   requests            in degree(f) bits      books only
//                   use_rank[slot]      in bit_width(degree(f)) bits each,
//                                       degree(f) slots        books only
//   per philosopher phase               in 3 bits
//                   committed side      in 1 bit
//   per aux word    aux+1               in bit_width(n) bits   baselines only
//
// where n = philosophers, m = the algorithm's effective GDP numbering range.
// Fields whose algorithm never writes them (nr without uses_numbers(), books
// without uses_books(), aux without init_aux()) get ZERO bits, so a classic
// lr1/ring key fits one 64-bit word where the byte encoding took 24 bytes.
//
// Every field occupies its own bit range, so the packing is injective on the
// states the engines can reach; equality and hashing are branch-free word
// compares. The codec is exactly as distinguishing as SimState::encode (the
// legacy diagnostic encoding, cross-checked by test_differential): fields the
// layout drops are provably constant for the algorithm, and fields outside a
// range the layout can represent (a scratch word, an out-of-contract aux
// value) fail a GDP_CHECK instead of silently aliasing two states.
//
// A key is a run of key_words() 64-bit words and has no type of its own:
// the StateIndex owns every explored state's run once, in one id-ordered
// word array, and everything else (the explorer's level buffers, the
// chunked store's payloads, a checkpoint) holds runs of the same words.
// decode() reconstructs the full SimState from a run, which keeps witness
// replay and trace output byte-for-byte what it was with byte-vector keys.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/grow_array.hpp"
#include "gdp/graph/topology.hpp"
#include "gdp/rng/splitmix.hpp"
#include "gdp/sim/state.hpp"

namespace gdp::mdp {

namespace detail {
class LevelExplorer;
}  // namespace detail

using StateId = std::uint32_t;

/// Word-wise splitmix fold over a key's word run (the StateIndex hash);
/// replaces the byte-wise FNV of the old keys.
inline std::uint64_t hash_key_words(const std::uint64_t* w, std::size_t words) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + words;
  for (std::size_t i = 0; i < words; ++i) h = rng::splitmix64_once(h ^ w[i]);
  return h;
}


/// The layout, computed once from (algorithm, topology); encode/decode are
/// const and safe to share across exploration workers.
class KeyCodec {
 public:
  /// An invalid codec (valid() == false); reset via assignment.
  KeyCodec() = default;
  KeyCodec(const algos::Algorithm& algo, const graph::Topology& t);

  bool valid() const { return num_phils_ > 0; }

  int num_forks() const { return num_forks_; }
  int num_phils() const { return num_phils_; }
  int aux_words() const { return aux_words_; }
  bool books() const { return books_; }
  bool numbers() const { return numbers_; }

  unsigned holder_bits() const { return holder_bits_; }
  unsigned nr_bits() const { return nr_bits_; }
  unsigned aux_bits() const { return aux_bits_; }
  static constexpr unsigned phase_bits() { return 3; }
  unsigned request_bits(ForkId f) const { return books_ ? degree_[static_cast<std::size_t>(f)] : 0; }
  unsigned rank_bits(ForkId f) const;

  std::size_t key_bits() const { return bits_; }
  std::size_t key_words() const { return words_; }
  std::size_t key_bytes() const { return words_ * sizeof(std::uint64_t); }
  /// Bytes the legacy SimState::encode byte vector takes for this shape —
  /// the before/after of the packing, for memory reporting.
  std::size_t legacy_key_bytes() const;

  /// Writes the key_words() words of `state`'s key to `out`.
  void encode(const sim::SimState& state, std::uint64_t* out) const;

  /// Exact inverse of encode() on keys it produced: the state whose key is
  /// the key_words()-word run at `words`.
  sim::SimState decode(const std::uint64_t* words) const;
  /// decode() into `out`: overwrites every field, whatever `out` held or
  /// its shape, reusing its storage (no allocation once `out` has the
  /// layout's shape).
  void decode(const std::uint64_t* words, sim::SimState& out) const;

 private:
  int num_forks_ = 0;
  int num_phils_ = 0;
  int aux_words_ = 0;
  bool books_ = false;
  bool numbers_ = false;
  std::uint8_t holder_bits_ = 0;
  std::uint8_t nr_bits_ = 0;
  std::uint8_t aux_bits_ = 0;
  std::uint16_t nr_max_ = 0;
  std::vector<std::uint8_t> degree_;  // per fork; filled only when books_
  std::size_t bits_ = 0;
  std::size_t words_ = 0;
};

/// The state table the explorers build and return: the codec, every state's
/// packed key stored ONCE in a flat id-ordered word array, and kShards
/// open-addressing shards of 32-bit ids over those keys (linear probing, load
/// at most 1/2). A key's splitmix hash picks its shard (top bits) and home
/// slot (low bits); a slot holds kEmpty or an id, so the whole index costs
/// key_bytes() + slot_bytes() — no per-key node, no second key copy.
///
/// Callers holding only the index (WitnessScheduler, the differential
/// tests) encode a live SimState into a word buffer and find() it, and read
/// stored keys by looping over the ids: codec().decode(key(id)).
///
/// Phase-concurrent interning (Shun & Blelloch, "Phase-Concurrent Hash
/// Tables for Determinism", SPAA 2014): during one level of the explorer
/// each shard is owned by one task, which resolves that shard's successor
/// occurrences in ascending level position. An absent key is claimed as
/// kPendingTag | position — "pending, first seen at position j" — and later
/// occurrences of it resolve to that same tag. The explorer then numbers
/// the first occurrences in position order (a prefix scan), appends their
/// keys and settles every shard, turning pending tags into those ids. So
/// ids and level positions share 31 bits, checked where they are minted.
class StateIndex {
 public:
  static constexpr std::uint32_t kPendingTag = std::uint32_t{1} << 31;
  static constexpr std::size_t kShardBits = 6;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

  StateIndex() = default;

  /// Installs the codec and clears any previous contents.
  void reset(const KeyCodec& codec);

  /// Installs the codec and rebuilds the table from id-ordered flat keys
  /// (key_words() words per state — a checkpoint's, or the initial state's),
  /// which it takes over as its key array, hashing every key once. Throws
  /// PreconditionError on a duplicate key.
  void restore(const KeyCodec& codec, common::GrowArray<std::uint64_t> flat_keys);

  const KeyCodec& codec() const { return codec_; }
  std::size_t key_words() const { return kw_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The key_words() words of state `id`'s key.
  const std::uint64_t* key(StateId id) const {
    return keys_.data() + static_cast<std::size_t>(id) * kw_;
  }
  /// Every key, id-ordered, key_words() words each.
  std::span<const std::uint64_t> flat_keys() const { return {keys_.data(), keys_.size()}; }

  /// The id of the key whose key_words() words are at `words`, if stored.
  std::optional<StateId> find(const std::uint64_t* words) const;
  /// find() of `state`'s key, encoded into a local buffer.
  std::optional<StateId> find(const sim::SimState& state) const;

  /// Footprint: the flat keys, and the shards' slot arrays.
  std::size_t key_bytes() const { return keys_.size() * sizeof(std::uint64_t); }
  std::size_t slot_bytes() const;

 private:
  // --- Phase-concurrent interning, driven by the level explorer. ---
  // Calls for distinct shards may run concurrently; nothing else may run
  // concurrently with append().
  friend class detail::LevelExplorer;

  static std::size_t shard_of(std::uint64_t hash) { return hash >> (64 - kShardBits); }

  /// Grows `shard` so that `incoming` more keys keep its load at most 1/2.
  void grow_shard(std::size_t shard, std::size_t incoming);

  /// Resolves the key at `level_keys + pos * key_words()` (hash `hash`) in
  /// its shard: an existing id, the pending tag of an earlier position with
  /// the same key, or — claiming an empty slot — kPendingTag | pos itself.
  std::uint32_t find_or_claim(std::uint64_t hash, const std::uint64_t* level_keys,
                              std::uint32_t pos);

  /// Appends `n` uninitialized keys as ids [size(), size() + n) and returns
  /// the first one's words: the caller writes every word before any read.
  std::uint64_t* append(std::size_t n);

  /// Replaces every slot `shard` claimed this phase, kPendingTag | pos, by
  /// id_of[pos] — the id the prefix scan gave that first occurrence.
  void settle_shard(std::size_t shard, const std::uint32_t* id_of);

  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  struct alignas(64) Shard {
    std::vector<std::uint32_t> slots;    // kEmpty, an id, or a pending tag
    std::vector<std::uint32_t> claimed;  // slots claimed pending this phase
    std::size_t used = 0;                // settled ids in the shard
  };

  std::optional<StateId> find_hashed(const std::uint64_t* words, std::uint64_t hash) const;
  void place(std::uint64_t hash, StateId id);

  KeyCodec codec_;
  std::size_t kw_ = 0;
  std::size_t size_ = 0;
  common::GrowArray<std::uint64_t> keys_;  // id -> key_words() words
  std::vector<Shard> shards_;
};

}  // namespace gdp::mdp
