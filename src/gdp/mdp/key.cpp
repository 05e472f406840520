#include "gdp/mdp/key.hpp"

#include <algorithm>
#include <bit>

#include "gdp/common/check.hpp"

namespace gdp::mdp {

namespace {

/// Bits needed to store values in [0, max_value]; at least 1 so every field
/// occupies a nonempty range (keeps offsets trivially distinct).
unsigned width_for(unsigned max_value) {
  return max_value == 0 ? 1u : static_cast<unsigned>(std::bit_width(max_value));
}

/// Appends `width` bits of `value` at cursor `bit` (little-endian within and
/// across words). The buffer is pre-zeroed, so plain ORs suffice.
inline void put_bits(std::uint64_t* words, std::size_t& bit, std::uint64_t value, unsigned width) {
  const unsigned off = static_cast<unsigned>(bit & 63);
  words[bit >> 6] |= value << off;
  if (off + width > 64) words[(bit >> 6) + 1] |= value >> (64 - off);
  bit += width;
}

inline std::uint64_t get_bits(const std::uint64_t* words, std::size_t& bit, unsigned width) {
  const unsigned off = static_cast<unsigned>(bit & 63);
  std::uint64_t value = words[bit >> 6] >> off;
  if (off + width > 64) value |= words[(bit >> 6) + 1] << (64 - off);
  bit += width;
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  return value;
}

}  // namespace

KeyCodec::KeyCodec(const algos::Algorithm& algo, const graph::Topology& t) {
  num_forks_ = t.num_forks();
  num_phils_ = t.num_phils();
  books_ = algo.uses_books();
  numbers_ = algo.uses_numbers();

  // holder is stored +1 (0 = free), so the field must span [0, n].
  holder_bits_ = static_cast<std::uint8_t>(width_for(static_cast<unsigned>(num_phils_)));
  if (numbers_) {
    // nr_max_ is 16-bit storage: a larger m would truncate here, shrink
    // nr_bits_, and silently intern distinct states as one key. effective_m
    // guards the same bound at its own boundary; this check keeps the codec
    // sound even for callers that bypass it.
    const int m = algo.effective_m(t);
    GDP_CHECK_MSG(m >= 0 && m <= 0xffff,
                  "KeyCodec: effective m " << m << " exceeds the 16-bit nr field; "
                                              "keys would collide");
    nr_max_ = static_cast<std::uint16_t>(m);
    nr_bits_ = static_cast<std::uint8_t>(width_for(nr_max_));
  }
  // Aux words hold philosopher ids or small counters in [-1, n-1] (the
  // documented init_aux contract), stored +1.
  aux_words_ = static_cast<int>(algo.initial_state(t).aux.size());
  if (aux_words_ > 0) aux_bits_ = static_cast<std::uint8_t>(width_for(static_cast<unsigned>(num_phils_)));

  bits_ = 0;
  if (books_) {
    degree_.reserve(static_cast<std::size_t>(num_forks_));
    for (ForkId f = 0; f < num_forks_; ++f) {
      // validate() capped book-keeping degrees at 64 (the request word).
      GDP_CHECK_MSG(t.degree(f) <= 64, "books need degree <= 64, got " << t.degree(f));
      degree_.push_back(static_cast<std::uint8_t>(t.degree(f)));
    }
  }
  for (ForkId f = 0; f < num_forks_; ++f) {
    bits_ += holder_bits_ + nr_bits_;
    if (books_) {
      const unsigned deg = degree_[static_cast<std::size_t>(f)];
      bits_ += deg + deg * width_for(deg);  // request bits + per-slot ranks
    }
  }
  bits_ += static_cast<std::size_t>(num_phils_) * (phase_bits() + 1);
  bits_ += static_cast<std::size_t>(aux_words_) * aux_bits_;
  words_ = (bits_ + 63) / 64;
}

unsigned KeyCodec::rank_bits(ForkId f) const {
  return books_ ? width_for(degree_[static_cast<std::size_t>(f)]) : 0;
}

std::size_t KeyCodec::legacy_key_bytes() const {
  // SimState::encode per fork: holder byte, 2 nr bytes, 8 request bytes,
  // rank-size byte, then the ranks; per philosopher 4 bytes; 4 per aux word.
  std::size_t bytes = static_cast<std::size_t>(num_forks_) * 12;
  if (books_) {
    for (const std::uint8_t deg : degree_) bytes += deg;
  }
  bytes += static_cast<std::size_t>(num_phils_) * 4;
  bytes += static_cast<std::size_t>(aux_words_) * 4;
  return bytes;
}

void KeyCodec::encode(const sim::SimState& state, std::uint64_t* w) const {
  GDP_DCHECK(valid());
  GDP_DCHECK(static_cast<int>(state.forks.size()) == num_forks_);
  GDP_DCHECK(static_cast<int>(state.phils.size()) == num_phils_);
  GDP_CHECK_MSG(static_cast<int>(state.aux.size()) == aux_words_,
                "aux resized after init_aux: " << state.aux.size() << " words, layout has "
                                               << aux_words_);

  std::fill_n(w, words_, 0);
  std::size_t bit = 0;

  for (ForkId f = 0; f < num_forks_; ++f) {
    // Field values outside their layout range would OR past the field
    // boundary and corrupt neighbours, so the guards are hard checks (one
    // integer compare each — noise next to the step() calls around encode).
    const sim::ForkState& fork = state.fork(f);
    GDP_CHECK_MSG(fork.holder >= kNoPhil && fork.holder < num_phils_,
                  "holder " << fork.holder << " outside [-1, " << num_phils_ << ")");
    put_bits(w, bit, static_cast<std::uint64_t>(fork.holder + 1), holder_bits_);
    if (numbers_) {
      GDP_CHECK_MSG(fork.nr <= nr_max_, "nr " << fork.nr << " > m = " << nr_max_);
      put_bits(w, bit, fork.nr, nr_bits_);
    } else {
      GDP_CHECK_MSG(fork.nr == 0, "nr written by an algorithm without uses_numbers()");
    }
    if (books_) {
      const unsigned deg = degree_[static_cast<std::size_t>(f)];
      GDP_CHECK_MSG(deg == 64 || (fork.requests >> deg) == 0,
                    "request bits beyond the fork's " << deg << " sharers");
      put_bits(w, bit, fork.requests, deg);
      GDP_CHECK_MSG(fork.use_rank.size() == deg,
                    "use_rank has " << fork.use_rank.size() << " slots, degree is " << deg);
      const unsigned rank_width = width_for(deg);
      for (const std::uint8_t rank : fork.use_rank) {
        GDP_CHECK_MSG(rank <= deg, "rank " << int{rank} << " > degree " << deg);
        put_bits(w, bit, rank, rank_width);
      }
    } else {
      GDP_CHECK_MSG(fork.requests == 0 && fork.use_rank.empty(),
                    "books written by an algorithm without uses_books()");
    }
  }

  for (const sim::PhilState& phil : state.phils) {
    put_bits(w, bit, static_cast<std::uint64_t>(phil.phase), phase_bits());
    put_bits(w, bit, static_cast<std::uint64_t>(phil.committed), 1);
    // No in-tree Topology algorithm writes scratch; a zero-width field would
    // silently alias states if one ever did, so refuse loudly instead.
    GDP_CHECK_MSG(phil.scratch == 0,
                  "KeyCodec has no scratch field (got " << phil.scratch
                                                        << "); extend the layout first");
  }

  for (const std::int32_t word : state.aux) {
    GDP_CHECK_MSG(word >= -1 && word < num_phils_,
                  "aux word " << word << " outside the [-1, n-1] layout contract");
    put_bits(w, bit, static_cast<std::uint64_t>(word + 1), aux_bits_);
  }
  GDP_DCHECK(bit == bits_);
}

sim::SimState KeyCodec::decode(const std::uint64_t* w) const {
  sim::SimState state;
  decode(w, state);
  return state;
}

void KeyCodec::decode(const std::uint64_t* w, sim::SimState& state) const {
  GDP_CHECK_MSG(valid(), "decode on an unset KeyCodec");

  state.forks.resize(static_cast<std::size_t>(num_forks_));
  state.phils.resize(static_cast<std::size_t>(num_phils_));
  state.aux.resize(static_cast<std::size_t>(aux_words_));

  std::size_t bit = 0;

  for (ForkId f = 0; f < num_forks_; ++f) {
    sim::ForkState& fork = state.fork(f);
    fork.holder = static_cast<PhilId>(get_bits(w, bit, holder_bits_)) - 1;
    fork.nr = numbers_ ? static_cast<std::uint16_t>(get_bits(w, bit, nr_bits_)) : 0;
    if (books_) {
      const unsigned deg = degree_[static_cast<std::size_t>(f)];
      fork.requests = get_bits(w, bit, deg);
      fork.use_rank.resize(deg);
      const unsigned rank_width = width_for(deg);
      for (std::uint8_t& rank : fork.use_rank) {
        rank = static_cast<std::uint8_t>(get_bits(w, bit, rank_width));
      }
    } else {
      fork.requests = 0;
      fork.use_rank.clear();
    }
  }

  for (sim::PhilState& phil : state.phils) {
    phil.phase = static_cast<sim::Phase>(get_bits(w, bit, phase_bits()));
    phil.committed = static_cast<Side>(get_bits(w, bit, 1));
    phil.scratch = 0;
  }

  for (std::int32_t& word : state.aux) {
    word = static_cast<std::int32_t>(get_bits(w, bit, aux_bits_)) - 1;
  }
}

// ---------------------------------------------------------------------------
// StateIndex
// ---------------------------------------------------------------------------

namespace {

/// Smallest shard table; keeps the probe mask arithmetic free of a zero case.
constexpr std::size_t kMinShardSlots = 16;

}  // namespace

void StateIndex::reset(const KeyCodec& codec) {
  codec_ = codec;
  kw_ = codec.key_words();
  size_ = 0;
  keys_.clear();
  shards_.assign(kShards, Shard{});
  for (Shard& shard : shards_) shard.slots.assign(kMinShardSlots, kEmpty);
}

void StateIndex::restore(const KeyCodec& codec, common::GrowArray<std::uint64_t> flat_keys) {
  reset(codec);
  GDP_CHECK_MSG(kw_ > 0 && flat_keys.size() % kw_ == 0,
                "StateIndex: " << flat_keys.size() << " key words are not whole " << kw_
                               << "-word keys");
  const std::size_t n = flat_keys.size() / kw_;
  GDP_CHECK_MSG(n < kPendingTag, "StateIndex: " << n << " states exceed the 2^31 id range");
  // Size every shard once for its final load, then place keys in id order.
  std::vector<std::uint64_t> hashes(n);
  std::vector<std::size_t> per_shard(kShards, 0);
  for (std::size_t id = 0; id < n; ++id) {
    hashes[id] = hash_key_words(flat_keys.data() + id * kw_, kw_);
    ++per_shard[shard_of(hashes[id])];
  }
  for (std::size_t s = 0; s < kShards; ++s) grow_shard(s, per_shard[s]);
  keys_ = std::move(flat_keys);
  size_ = n;
  for (std::size_t id = 0; id < n; ++id) {
    const std::optional<StateId> dup = find_hashed(key(static_cast<StateId>(id)), hashes[id]);
    GDP_CHECK_MSG(!dup.has_value(),
                  "StateIndex: duplicate key at id " << id << " (first stored at id " << *dup << ")");
    place(hashes[id], static_cast<StateId>(id));
  }
}

std::size_t StateIndex::slot_bytes() const {
  std::size_t slots = 0;
  for (const Shard& shard : shards_) slots += shard.slots.size();
  return slots * sizeof(std::uint32_t);
}

std::optional<StateId> StateIndex::find(const std::uint64_t* words) const {
  if (size_ == 0) return std::nullopt;
  return find_hashed(words, hash_key_words(words, kw_));
}

std::optional<StateId> StateIndex::find(const sim::SimState& state) const {
  std::vector<std::uint64_t> words(kw_);
  codec_.encode(state, words.data());
  return find(words.data());
}

std::optional<StateId> StateIndex::find_hashed(const std::uint64_t* words,
                                               std::uint64_t hash) const {
  const Shard& shard = shards_[shard_of(hash)];
  const std::size_t mask = shard.slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t v = shard.slots[i];
    if (v == kEmpty) return std::nullopt;
    if (std::equal(words, words + kw_, key(v))) return v;
  }
}

void StateIndex::place(std::uint64_t hash, StateId id) {
  Shard& shard = shards_[shard_of(hash)];
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t i = hash & mask;
  while (shard.slots[i] != kEmpty) i = (i + 1) & mask;
  shard.slots[i] = id;
  ++shard.used;
}

void StateIndex::grow_shard(std::size_t s, std::size_t incoming) {
  Shard& shard = shards_[s];
  const std::size_t need = 2 * (shard.used + incoming);
  if (shard.slots.size() >= need) return;
  std::vector<std::uint32_t> old = std::move(shard.slots);
  shard.slots.assign(std::bit_ceil(need), kEmpty);
  shard.used = 0;
  for (const std::uint32_t id : old) {
    if (id != kEmpty) place(hash_key_words(key(id), kw_), id);
  }
}

std::uint32_t StateIndex::find_or_claim(std::uint64_t hash, const std::uint64_t* level_keys,
                                        std::uint32_t pos) {
  Shard& shard = shards_[shard_of(hash)];
  const std::uint64_t* words = level_keys + static_cast<std::size_t>(pos) * kw_;
  const std::size_t mask = shard.slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t v = shard.slots[i];
    if (v == kEmpty) {
      shard.slots[i] = kPendingTag | pos;
      shard.claimed.push_back(static_cast<std::uint32_t>(i));
      return kPendingTag | pos;
    }
    const std::uint64_t* other =
        (v & kPendingTag) != 0
            ? level_keys + static_cast<std::size_t>(v & ~kPendingTag) * kw_
            : key(v);
    if (std::equal(words, words + kw_, other)) return v;
  }
}

std::uint64_t* StateIndex::append(std::size_t n) {
  GDP_CHECK_MSG(size_ + n < kPendingTag,
                "StateIndex: " << size_ + n << " states exceed the 2^31 id range");
  size_ += n;
  return keys_.grow(n * kw_);
}

void StateIndex::settle_shard(std::size_t s, const std::uint32_t* id_of) {
  Shard& shard = shards_[s];
  for (const std::uint32_t i : shard.claimed) {
    shard.slots[i] = id_of[shard.slots[i] & ~kPendingTag];
  }
  shard.used += shard.claimed.size();
  shard.claimed.clear();
}

}  // namespace gdp::mdp
