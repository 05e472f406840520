#include "gdp/mdp/level_explore.hpp"

#include <array>

#include "gdp/common/check.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"
#include "gdp/sim/state.hpp"
#include "gdp/sim/step.hpp"

namespace gdp::mdp::detail {

namespace {

/// Levels with fewer successors than this run their intern phases inline:
/// the pool spawns fresh OS threads on every call (~100 µs each), which a
/// small level cannot amortize. Ids never depend on it — only where the
/// phases run.
constexpr std::size_t kParallelInternMin = 65'536;

/// Parallel intern phases split a level's states into at most this many
/// contiguous blocks (the counting sort's histograms, the prefix scan).
constexpr std::size_t kMaxBlocks = 256;

/// States per expansion block: each block decodes into one state and steps
/// through one scratch, so their set-up is paid once per block. Ids never
/// depend on it — each state writes only its own Expansion.
constexpr std::size_t kExpandGrain = 64;

constexpr std::size_t kShards = StateIndex::kShards;
constexpr std::uint32_t kPendingTag = StateIndex::kPendingTag;

/// One state's expansion, recorded by the parallel phase of a level.
/// Successor keys are flat key_words()-stride word runs, not PackedKeys, so
/// a worker's output is a handful of contiguous vectors.
struct Expansion {
  std::vector<std::uint64_t> succ_words;   // key_words() words per successor
  std::vector<std::uint64_t> succ_hashes;  // hash_key_words per successor
  std::vector<std::uint64_t> succ_eaters;  // eater mask per successor
  std::vector<float> probs;                // probability per successor
  std::vector<std::uint32_t> row_ends;     // per philosopher, end in probs

  void clear() {
    succ_words.clear();
    succ_hashes.clear();
    succ_eaters.clear();
    probs.clear();
    row_ends.clear();
  }
};

/// A level position bucketed into its hash shard.
struct ShardEntry {
  std::uint64_t hash;
  std::uint32_t pos;
};

}  // namespace

/// Per-level working storage, kept across the levels of one run() so the
/// buffers are allocated once at the widest level's size.
struct LevelScratch {
  std::vector<Expansion> level;            // per state of the level
  std::vector<std::size_t> first_pos;      // per state: its first level position
  std::vector<std::uint64_t> level_keys;   // successor keys in position order
  std::vector<ShardEntry> order;           // positions by shard, ascending in each
  std::vector<std::uint32_t> resolved;     // position -> id or kPendingTag | position
  std::vector<std::size_t> cursors;        // (block, shard) counts, then scatter cursors
  std::vector<std::size_t> block_ids;      // per block: first new id it assigns
};

LevelExplorer::LevelExplorer(const algos::Algorithm& algo, const graph::Topology& t)
    : algo_(algo), topology_(t) {
  GDP_CHECK_MSG(algo.config().think == algos::ThinkMode::kHungry,
                "MDP exploration requires ThinkMode::kHungry");
  // eater_mask/target_mask are one 64-bit word; beyond 64 philosophers they
  // would alias onto bit 63 and verdicts would be silently wrong.
  GDP_CHECK_MSG(t.num_phils() <= 64, "exploration supports at most 64 philosophers (the "
                                     "eater/target masks are 64-bit), got "
                                         << t.num_phils());
  codec_ = KeyCodec(algo, t);
  const sim::SimState initial = algo.initial_state(t);
  const PackedKey key = codec_.encode(initial);
  index_.restore(codec_, std::vector<std::uint64_t>(key.data(), key.data() + key.words()));
  eaters_.push_back(sim::eater_mask(initial));
  row_ends_.push_back(0);
}

void LevelExplorer::run(std::size_t max_states, int threads) {
  const int n = topology_.num_phils();
  const std::size_t kw = codec_.key_words();
  truncated_ = false;

  // Deterministic plane: levels, states, edges and the per-level size
  // distribution are pure functions of (algorithm, topology, max_states) —
  // the level structure never depends on the thread count. The run span is
  // wall clock (timing plane).
  static obs::Counter& levels_ctr = obs::Registry::global().counter("explore.levels");
  static obs::Counter& states_ctr = obs::Registry::global().counter("explore.states");
  static obs::Counter& edges_ctr = obs::Registry::global().counter("explore.edges");
  static obs::Counter& truncations_ctr = obs::Registry::global().counter("explore.truncations");
  static obs::Histogram& level_states = obs::Registry::global().histogram("explore.level_states");
  static obs::Gauge& intern_bytes = obs::Registry::global().gauge("explore.intern_bytes_peak");
  obs::Span run_span("explore.run");

  LevelScratch scratch;
  while (num_expanded_ < index_.size()) {
    if (index_.size() >= max_states) {
      // Cap reached at a level boundary: stop before the next level. Every
      // state is either fully expanded or untouched frontier, so the capped
      // model is a pure function of (algorithm, topology, max_states).
      truncated_ = true;
      truncations_ctr.increment();
      break;
    }
    const std::size_t begin = num_expanded_;
    const std::size_t count = index_.size() - begin;
    const std::size_t level_edges_before = outcomes_.size();
    obs::Span level_span("explore.level");

    // Parallel phase: expand each state of the level into its own buffer.
    // Workers read shared immutable state and write only their task's slot.
    // Each block of states decodes into one state and steps through one
    // scratch, so successors are encoded straight off the scratch and no
    // branch touches the allocator once the two have the layout's shape.
    if (scratch.level.size() < count) scratch.level.resize(count);
    {
      obs::Span expand_span("explore.expand");
      common::parallel_for(count, kExpandGrain, threads, [&](std::size_t lo, std::size_t hi) {
        sim::SimState state;
        sim::SimState next;
        Expansion* e = nullptr;
        algos::SinkFn record([&](double prob, const sim::StepEvent&, const sim::SimState& succ) {
          const std::size_t at = e->succ_words.size();
          e->succ_words.resize(at + kw);
          std::uint64_t* w = e->succ_words.data() + at;
          codec_.encode(succ, w);
          e->succ_hashes.push_back(hash_key_words(w, kw));
          e->succ_eaters.push_back(sim::eater_mask(succ));
          e->probs.push_back(static_cast<float>(prob));
        });
        for (std::size_t i = lo; i < hi; ++i) {
          codec_.decode(index_.key(static_cast<StateId>(begin + i)), state);
          e = &scratch.level[i];
          e->clear();
          for (PhilId p = 0; p < n; ++p) {
            algo_.step(topology_, state, p, next, record);
            e->row_ends.push_back(static_cast<std::uint32_t>(e->probs.size()));
          }
        }
      });
    }
    {
      obs::Span intern_span("explore.intern");
      intern_level(scratch, begin, count, threads);
    }

    levels_ctr.increment();
    // Per-level deltas (not one end-of-run add) so a GDP_OBS_PROGRESS
    // heartbeat sees totals grow level by level. The deltas sum to the same
    // run totals, so the deterministic plane is unchanged.
    states_ctr.add(count);
    edges_ctr.add(outcomes_.size() - level_edges_before);
    level_states.record(count);
    num_expanded_ = begin + count;
    obs::timeline::counter_sample("explore.states", static_cast<double>(num_expanded_));
    obs::timeline::counter_sample("explore.edges", static_cast<double>(outcomes_.size()));
  }

  // Interner footprint: the flat keys plus the shard slots over them. Both
  // are functions of the level structure alone, so the gauge stays on the
  // deterministic plane.
  intern_bytes.set_max(index_.key_bytes() + index_.slot_bytes());
}

void LevelExplorer::intern_level(LevelScratch& sc, std::size_t begin, std::size_t count,
                                 int threads) {
  const std::size_t n = static_cast<std::size_t>(topology_.num_phils());
  const std::size_t kw = codec_.key_words();

  // Level positions: successor j of the level's state i sits at
  // first_pos[i] + j — its index in the (state, philosopher, branch) order
  // the outcome rows store successors in.
  sc.first_pos.resize(count + 1);
  sc.first_pos[0] = 0;
  for (std::size_t i = 0; i < count; ++i) {
    sc.first_pos[i + 1] = sc.first_pos[i] + sc.level[i].probs.size();
  }
  const std::size_t total = sc.first_pos[count];
  GDP_CHECK_MSG(total < kPendingTag,
                "explore: a level with " << total << " successors exceeds the 2^31 position range");
  const int t = total < kParallelInternMin ? 1 : threads;

  // Contiguous state blocks (one when inline); ids never depend on the
  // split.
  const std::size_t blocks = t == 1 ? 1 : std::min(count, kMaxBlocks);
  const auto block_begin = [&](std::size_t b) { return count * b / blocks; };

  // Gather the successor keys into position order and histogram each
  // block's successors by shard.
  sc.level_keys.resize(total * kw);
  sc.cursors.assign(blocks * kShards, 0);
  common::parallel_for(blocks, t, [&](std::uint32_t b) {
    std::size_t* hist = sc.cursors.data() + b * kShards;
    for (std::size_t i = block_begin(b); i < block_begin(b + 1); ++i) {
      const Expansion& e = sc.level[i];
      std::copy(e.succ_words.begin(), e.succ_words.end(),
                sc.level_keys.begin() + static_cast<std::ptrdiff_t>(sc.first_pos[i] * kw));
      for (const std::uint64_t h : e.succ_hashes) ++hist[StateIndex::shard_of(h)];
    }
  });

  // Stable counting sort: shard-major, block-minor exclusive scan turns the
  // histograms into scatter cursors, so each shard lists its positions in
  // ascending order.
  std::array<std::size_t, kShards + 1> shard_begin{};
  std::size_t acc = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    shard_begin[s] = acc;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t c = sc.cursors[b * kShards + s];
      sc.cursors[b * kShards + s] = acc;
      acc += c;
    }
  }
  shard_begin[kShards] = acc;
  sc.order.resize(total);
  common::parallel_for(blocks, t, [&](std::uint32_t b) {
    std::size_t* cursor = sc.cursors.data() + b * kShards;
    for (std::size_t i = block_begin(b); i < block_begin(b + 1); ++i) {
      const Expansion& e = sc.level[i];
      for (std::size_t j = 0; j < e.succ_hashes.size(); ++j) {
        const std::uint64_t h = e.succ_hashes[j];
        sc.order[cursor[StateIndex::shard_of(h)]++] =
            ShardEntry{h, static_cast<std::uint32_t>(sc.first_pos[i] + j)};
      }
    }
  });

  // Shards resolve in parallel, each in ascending position order: an
  // existing id, or the pending tag of the key's first occurrence. Each
  // shard first grows so its load stays at most 1/2 through the pass.
  sc.resolved.resize(total);
  common::parallel_for(kShards, t, [&](std::uint32_t s) {
    index_.grow_shard(s, shard_begin[s + 1] - shard_begin[s]);
    for (std::size_t k = shard_begin[s]; k < shard_begin[s + 1]; ++k) {
      const ShardEntry& entry = sc.order[k];
      sc.resolved[entry.pos] = index_.find_or_claim(entry.hash, sc.level_keys.data(), entry.pos);
    }
  });

  // Prefix scan over the first occurrences (resolved to their own tag):
  // new states are numbered in position order — the sequential FIFO ids.
  const auto is_first = [&](std::size_t pos) {
    return sc.resolved[pos] == (kPendingTag | static_cast<std::uint32_t>(pos));
  };
  sc.block_ids.assign(blocks + 1, 0);
  common::parallel_for(blocks, t, [&](std::uint32_t b) {
    std::size_t firsts = 0;
    for (std::size_t pos = sc.first_pos[block_begin(b)]; pos < sc.first_pos[block_begin(b + 1)];
         ++pos) {
      firsts += is_first(pos) ? 1 : 0;
    }
    sc.block_ids[b + 1] = firsts;
  });
  const std::size_t first_new = index_.size();
  sc.block_ids[0] = first_new;
  for (std::size_t b = 0; b < blocks; ++b) sc.block_ids[b + 1] += sc.block_ids[b];
  const std::size_t num_new = sc.block_ids[blocks] - first_new;

  std::uint64_t* new_keys = index_.append(num_new);
  eaters_.resize(first_new + num_new);
  const std::size_t out_base = outcomes_.size();
  outcomes_.resize(out_base + total);
  row_ends_.resize(row_ends_.size() + count * n);

  // First occurrences take their ids: resolved[pos] becomes the id, and
  // the key and eater mask land in the id-ordered arrays.
  common::parallel_for(blocks, t, [&](std::uint32_t b) {
    std::size_t id = sc.block_ids[b];
    for (std::size_t i = block_begin(b); i < block_begin(b + 1); ++i) {
      const Expansion& e = sc.level[i];
      for (std::size_t j = 0; j < e.probs.size(); ++j) {
        const std::size_t pos = sc.first_pos[i] + j;
        if (!is_first(pos)) continue;
        sc.resolved[pos] = static_cast<std::uint32_t>(id);
        std::copy_n(sc.level_keys.begin() + static_cast<std::ptrdiff_t>(pos * kw), kw,
                    new_keys + (id - first_new) * kw);
        eaters_[id] = e.succ_eaters[j];
        ++id;
      }
    }
  });

  // Rows in (state, philosopher, branch) order at their precomputed
  // ranges, and — in the remaining tasks — every shard's pending slots
  // settled to the ids just assigned.
  common::parallel_for(blocks + kShards, t, [&](std::uint32_t task) {
    if (task >= blocks) {
      index_.settle_shard(task - blocks, sc.resolved.data());
      return;
    }
    for (std::size_t i = block_begin(task); i < block_begin(task + 1); ++i) {
      const Expansion& e = sc.level[i];
      const std::size_t row_base = (begin + i) * n + 1;
      for (std::size_t p = 0; p < n; ++p) {
        row_ends_[row_base + p] = out_base + sc.first_pos[i] + e.row_ends[p];
      }
      for (std::size_t j = 0; j < e.probs.size(); ++j) {
        const std::size_t pos = sc.first_pos[i] + j;
        const std::uint32_t r = sc.resolved[pos];
        const StateId id = (r & kPendingTag) != 0 ? sc.resolved[r & ~kPendingTag] : r;
        outcomes_[out_base + pos] = Outcome{e.probs[j], id};
      }
    }
  });
}

Model LevelExplorer::take_model(StateIndex* index_out) {
  const std::size_t n = static_cast<std::size_t>(topology_.num_phils());
  const std::size_t total = index_.size();

  Model model;
  model.num_phils_ = static_cast<int>(n);
  model.truncated_ = truncated_;
  model.eaters_ = std::move(eaters_);
  model.frontier_.assign(total, false);
  for (std::size_t s = num_expanded_; s < total; ++s) model.frontier_[s] = true;
  // Frontier states have empty rows: their ends all sit at the last end.
  const std::uint64_t last_end = row_ends_.back();
  row_ends_.resize(total * n + 1, last_end);
  model.offsets_ = std::move(row_ends_);
  model.outcomes_ = std::move(outcomes_);

  if (index_out != nullptr) *index_out = std::move(index_);
  return model;
}

}  // namespace gdp::mdp::detail
