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

/// Parallel intern phases split a level's expansion blocks into at most
/// this many contiguous groups (the counting sort's histograms, the prefix
/// scan).
constexpr std::size_t kMaxGroups = 256;

/// States per expansion block. Each block records into one Expansion,
/// decodes into one state and steps through one scratch, so their set-up is
/// paid once per block. Ids never depend on it: a block's successors keep
/// their (state, philosopher, branch) order.
constexpr std::size_t kExpandGrain = 64;

constexpr std::size_t kShards = StateIndex::kShards;
constexpr std::uint32_t kPendingTag = StateIndex::kPendingTag;

/// One expansion block's successors (up to kExpandGrain consecutive states
/// of a level), recorded by the parallel phase in (state, philosopher,
/// branch) order: successor j of block b sits at level position
/// block_pos[b] + j. Successor keys are flat key_words()-stride word runs.
struct Expansion {
  std::vector<std::uint64_t> succ_words;   // key_words() words per successor
  std::vector<std::uint64_t> succ_hashes;  // hash_key_words per successor
  std::vector<std::uint64_t> succ_eaters;  // eater mask per successor
  std::vector<float> probs;                // probability per successor
  std::vector<std::uint32_t> row_ends;     // per (local state, philosopher): end in probs

  void clear() {
    succ_words.clear();
    succ_hashes.clear();
    succ_eaters.clear();
    probs.clear();
    row_ends.clear();
  }

  /// Bytes the recorded successors take (sizes, not capacities).
  std::size_t bytes() const {
    return (succ_words.size() + succ_hashes.size() + succ_eaters.size()) * sizeof(std::uint64_t) +
           probs.size() * sizeof(float) + row_ends.size() * sizeof(std::uint32_t);
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
  std::vector<Expansion> blocks;          // per expansion block of the level
  std::vector<std::size_t> block_pos;     // per block: its first level position; then the total
  std::vector<std::uint64_t> level_keys;  // successor keys in position order
  std::vector<ShardEntry> order;          // positions by shard, ascending in each
  std::vector<std::uint32_t> resolved;    // position -> id or kPendingTag | position
  std::vector<std::size_t> cursors;       // (group, shard) counts, then scatter cursors
  std::vector<std::size_t> group_ids;     // per group: first new id it assigns

  /// The level's footprint in the arrays whose sizes are functions of the
  /// level alone (cursors and group_ids scale with the thread count, and
  /// are a few kilobytes).
  std::size_t level_bytes(std::size_t num_blocks) const {
    std::size_t bytes = block_pos.size() * sizeof(std::size_t) +
                        level_keys.size() * sizeof(std::uint64_t) +
                        order.size() * sizeof(ShardEntry) + resolved.size() * sizeof(std::uint32_t);
    for (std::size_t b = 0; b < num_blocks; ++b) bytes += blocks[b].bytes();
    return bytes;
  }
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

  // Deterministic plane: levels, states, edges, the per-level size
  // distribution and the footprint gauges are pure functions of
  // (algorithm, topology, max_states) — the level structure never depends
  // on the thread count. The run span is wall clock (timing plane).
  static obs::Counter& levels_ctr = obs::Registry::global().counter("explore.levels");
  static obs::Counter& states_ctr = obs::Registry::global().counter("explore.states");
  static obs::Counter& edges_ctr = obs::Registry::global().counter("explore.edges");
  static obs::Counter& truncations_ctr = obs::Registry::global().counter("explore.truncations");
  static obs::Histogram& level_states = obs::Registry::global().histogram("explore.level_states");
  static obs::Gauge& intern_bytes = obs::Registry::global().gauge("explore.intern_bytes_peak");
  static obs::Gauge& level_bytes = obs::Registry::global().gauge("explore.level_scratch_bytes_peak");
  static obs::Gauge& row_bytes = obs::Registry::global().gauge("explore.row_bytes_peak");
  static obs::Gauge& key_bytes = obs::Registry::global().gauge("explore.key_bytes_peak");
  static obs::Gauge& slot_bytes = obs::Registry::global().gauge("explore.slot_bytes_peak");
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
    const std::size_t num_blocks = (count + kExpandGrain - 1) / kExpandGrain;
    const std::size_t level_edges_before = outcomes_.size();
    obs::Span level_span("explore.level");

    // Parallel phase: expand each block of states into its own buffer.
    // Workers read shared immutable state and write only their block's
    // Expansion: one task per expansion block, so every block of the level
    // is cleared and refilled whether the blocks run on the pool or inline.
    // Each block decodes into one state and steps through one scratch, so
    // successors are encoded straight off the scratch and no branch touches
    // the allocator once the two have the layout's shape.
    if (scratch.blocks.size() < num_blocks) scratch.blocks.resize(num_blocks);
    {
      obs::Span expand_span("explore.expand");
      common::parallel_for(num_blocks, threads, [&](std::uint32_t b) {
        sim::SimState state;
        sim::SimState next;
        Expansion& e = scratch.blocks[b];
        e.clear();
        algos::SinkFn record([&](double prob, const sim::StepEvent&, const sim::SimState& succ) {
          const std::size_t at = e.succ_words.size();
          e.succ_words.resize(at + kw);
          std::uint64_t* w = e.succ_words.data() + at;
          codec_.encode(succ, w);
          e.succ_hashes.push_back(hash_key_words(w, kw));
          e.succ_eaters.push_back(sim::eater_mask(succ));
          e.probs.push_back(static_cast<float>(prob));
        });
        const std::size_t lo = b * kExpandGrain;
        const std::size_t hi = std::min(count, lo + kExpandGrain);
        for (std::size_t i = lo; i < hi; ++i) {
          codec_.decode(index_.key(static_cast<StateId>(begin + i)), state);
          for (PhilId p = 0; p < n; ++p) {
            algo_.step(topology_, state, p, next, record);
            e.row_ends.push_back(static_cast<std::uint32_t>(e.probs.size()));
          }
        }
      });
    }
    {
      obs::Span intern_span("explore.intern");
      intern_level(scratch, count, threads);
    }
    level_bytes.set_max(scratch.level_bytes(num_blocks));

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

  // Footprint by structure, in sizes (never capacities), so every gauge is
  // a function of the level structure alone: the rows (outcomes, row ends
  // and eater masks), the interner's flat keys and shard slots, and their
  // sum as before.
  row_bytes.set_max(outcomes_.size() * sizeof(Outcome) +
                    (row_ends_.size() + eaters_.size()) * sizeof(std::uint64_t));
  key_bytes.set_max(index_.key_bytes());
  slot_bytes.set_max(index_.slot_bytes());
  intern_bytes.set_max(index_.key_bytes() + index_.slot_bytes());
}

void LevelExplorer::intern_level(LevelScratch& sc, std::size_t count, int threads) {
  const std::size_t n = static_cast<std::size_t>(topology_.num_phils());
  const std::size_t kw = codec_.key_words();
  const std::size_t num_blocks = (count + kExpandGrain - 1) / kExpandGrain;

  // Level positions: successor j of expansion block b sits at
  // block_pos[b] + j — its index in the (state, philosopher, branch) order
  // the outcome rows store successors in.
  sc.block_pos.resize(num_blocks + 1);
  sc.block_pos[0] = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    sc.block_pos[b + 1] = sc.block_pos[b] + sc.blocks[b].probs.size();
  }
  const std::size_t total = sc.block_pos[num_blocks];
  GDP_CHECK_MSG(total < kPendingTag,
                "explore: a level with " << total << " successors exceeds the 2^31 position range");
  const int t = total < kParallelInternMin ? 1 : threads;

  // Contiguous groups of expansion blocks (one when inline); ids never
  // depend on the split.
  const std::size_t groups = t == 1 ? 1 : std::min(num_blocks, kMaxGroups);
  const auto group_begin = [&](std::size_t g) { return num_blocks * g / groups; };

  // Gather the successor keys into position order and histogram each
  // group's successors by shard.
  sc.level_keys.resize(total * kw);
  sc.cursors.assign(groups * kShards, 0);
  common::parallel_for(groups, t, [&](std::uint32_t g) {
    std::size_t* hist = sc.cursors.data() + g * kShards;
    for (std::size_t b = group_begin(g); b < group_begin(g + 1); ++b) {
      const Expansion& e = sc.blocks[b];
      std::copy(e.succ_words.begin(), e.succ_words.end(),
                sc.level_keys.begin() + static_cast<std::ptrdiff_t>(sc.block_pos[b] * kw));
      for (const std::uint64_t h : e.succ_hashes) ++hist[StateIndex::shard_of(h)];
    }
  });

  // Stable counting sort: shard-major, group-minor exclusive scan turns the
  // histograms into scatter cursors, so each shard lists its positions in
  // ascending order.
  std::array<std::size_t, kShards + 1> shard_begin{};
  std::size_t acc = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    shard_begin[s] = acc;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t c = sc.cursors[g * kShards + s];
      sc.cursors[g * kShards + s] = acc;
      acc += c;
    }
  }
  shard_begin[kShards] = acc;
  sc.order.resize(total);
  common::parallel_for(groups, t, [&](std::uint32_t g) {
    std::size_t* cursor = sc.cursors.data() + g * kShards;
    for (std::size_t b = group_begin(g); b < group_begin(g + 1); ++b) {
      const Expansion& e = sc.blocks[b];
      for (std::size_t j = 0; j < e.succ_hashes.size(); ++j) {
        const std::uint64_t h = e.succ_hashes[j];
        sc.order[cursor[StateIndex::shard_of(h)]++] =
            ShardEntry{h, static_cast<std::uint32_t>(sc.block_pos[b] + j)};
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
  sc.group_ids.assign(groups + 1, 0);
  common::parallel_for(groups, t, [&](std::uint32_t g) {
    std::size_t firsts = 0;
    for (std::size_t pos = sc.block_pos[group_begin(g)]; pos < sc.block_pos[group_begin(g + 1)];
         ++pos) {
      firsts += is_first(pos) ? 1 : 0;
    }
    sc.group_ids[g + 1] = firsts;
  });
  const std::size_t first_new = index_.size();
  sc.group_ids[0] = first_new;
  for (std::size_t g = 0; g < groups; ++g) sc.group_ids[g + 1] += sc.group_ids[g];
  const std::size_t num_new = sc.group_ids[groups] - first_new;

  // The id-ordered arrays grow by this level's tails, left unwritten: the
  // passes below write every element of them.
  std::uint64_t* const new_keys = index_.append(num_new);
  std::uint64_t* const new_eaters = eaters_.grow(num_new);
  const std::size_t out_base = outcomes_.size();
  Outcome* const rows = outcomes_.grow(total);
  std::uint64_t* const row_ends = row_ends_.grow(count * n);

  // First occurrences take their ids: resolved[pos] becomes the id, and
  // the key and eater mask land in the id-ordered arrays.
  common::parallel_for(groups, t, [&](std::uint32_t g) {
    std::size_t id = sc.group_ids[g];
    for (std::size_t b = group_begin(g); b < group_begin(g + 1); ++b) {
      const Expansion& e = sc.blocks[b];
      for (std::size_t j = 0; j < e.probs.size(); ++j) {
        const std::size_t pos = sc.block_pos[b] + j;
        if (!is_first(pos)) continue;
        sc.resolved[pos] = static_cast<std::uint32_t>(id);
        std::copy_n(sc.level_keys.begin() + static_cast<std::ptrdiff_t>(pos * kw), kw,
                    new_keys + (id - first_new) * kw);
        new_eaters[id - first_new] = e.succ_eaters[j];
        ++id;
      }
    }
  });

  // Rows in (state, philosopher, branch) order at their precomputed
  // ranges, and — in the remaining tasks — every shard's pending slots
  // settled to the ids just assigned. Level state b * kExpandGrain + i
  // owns row ends [(b * kExpandGrain + i) * n, ... + n) of this level.
  common::parallel_for(groups + kShards, t, [&](std::uint32_t task) {
    if (task >= groups) {
      index_.settle_shard(task - groups, sc.resolved.data());
      return;
    }
    for (std::size_t b = group_begin(task); b < group_begin(task + 1); ++b) {
      const Expansion& e = sc.blocks[b];
      const std::uint64_t base = out_base + sc.block_pos[b];
      std::uint64_t* const block_row_ends = row_ends + b * kExpandGrain * n;
      for (std::size_t r = 0; r < e.row_ends.size(); ++r) block_row_ends[r] = base + e.row_ends[r];
      for (std::size_t j = 0; j < e.probs.size(); ++j) {
        const std::uint32_t r = sc.resolved[sc.block_pos[b] + j];
        const StateId id = (r & kPendingTag) != 0 ? sc.resolved[r & ~kPendingTag] : r;
        rows[sc.block_pos[b] + j] = Outcome{e.probs[j], id};
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
