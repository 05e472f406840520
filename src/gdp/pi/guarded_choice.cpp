#include "gdp/pi/guarded_choice.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

#include "gdp/common/check.hpp"
#include "gdp/common/thread_annotations.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/runtime/atomic_fork.hpp"

namespace gdp::pi {
namespace {

/// An agent's claimable intent. state: 0 = open, -1 = retracted,
/// c + 1 = committed to a rendezvous on channel c.
struct Offer {
  PhilId agent = kNoPhil;
  bool is_send = false;
  std::atomic<int> state{0};
};

/// A channel: a fork-like lock (the holder may scan/mutate the offer list)
/// plus the GDP nr priority carried by the lock object.
struct Channel {
  runtime::AtomicFork lock;
  /// Raw pointers into Shared::pools — which is exactly why the pools live
  /// in Shared and not in the Agent (the PR 2 use-after-free). Had this
  /// annotation existed then, any unlocked scan would have failed the
  /// GDP_THREAD_SAFETY build instead of flaking under ASan.
  std::vector<Offer*> offers GDP_GUARDED_BY(lock);
  std::atomic<std::uint64_t> syncs{0};
};

struct Shared {
  explicit Shared(const graph::Topology& t)
      : topology(t),
        pools(static_cast<std::size_t>(t.num_phils())),
        syncs_of(static_cast<std::size_t>(t.num_phils())) {}
  const graph::Topology& topology;
  std::deque<Channel> channels;
  /// Per-agent offer storage. Lives here — not in the Agent — because
  /// channel offer lists keep raw pointers into it: an agent that exits
  /// early must not free offers its peers may still scan.
  std::vector<std::deque<Offer>> pools;
  /// Per agent: rendezvous taken part in. Each is written by its agent
  /// only and read by every agent's stop test (targets_met).
  std::vector<std::atomic<std::uint64_t>> syncs_of;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rendezvous{0};
  std::atomic<std::uint64_t> violations{0};
  std::uint64_t target = 0;
  int m = 0;

  /// The run's end: `target` rendezvous, and every agent in one of them.
  bool targets_met() const {
    return rendezvous.load(std::memory_order_relaxed) >= target &&
           std::all_of(syncs_of.begin(), syncs_of.end(),
                       [](const auto& s) { return s.load(std::memory_order_relaxed) > 0; });
  }
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

class Agent {
 public:
  Agent(Shared& shared, PhilId id, std::uint64_t seed)
      : s_(shared),
        id_(id),
        rng_(seed),
        syncs_(shared.syncs_of[static_cast<std::size_t>(id)]),
        left_(shared.topology.left_of(id)),
        right_(shared.topology.right_of(id)),
        pool_(shared.pools[static_cast<std::size_t>(id)]) {}

  /// Analysis opt-out, justified: `offers` is guarded by the AtomicFork
  /// spin lock of a *data-dependent* channel (channel(left_) /
  /// channel(right_)), acquired two at a time by acquire_both() with
  /// retry-and-back-off — aliasing and control flow Clang's intraprocedural
  /// capability tracking cannot express. The discipline itself is simple
  /// (touch offers only between a successful acquire_both() and
  /// release_both()) and stays enforced dynamically: AtomicFork's
  /// GDP_DCHECK holder checks plus the TSan CI job.
  void run() GDP_NO_THREAD_SAFETY_ANALYSIS {
    Offer* mine = nullptr;  // currently posted offer, if any
    while (!s_.stop.load(std::memory_order_relaxed)) {
      // If a previously posted offer got claimed, the rendezvous is ours too.
      if (mine != nullptr) {
        const int state = mine->state.load(std::memory_order_acquire);
        if (state > 0) {
          if (state - 1 != left_ && state - 1 != right_) {
            s_.violations.fetch_add(1, std::memory_order_relaxed);
          }
          count_sync();
          mine = nullptr;
          continue;
        }
      }

      if (!acquire_both()) break;
      // --- both channels locked: scan for a complementary open offer.
      Offer* matched = nullptr;
      ForkId matched_on = kNoFork;
      for (ForkId c : {left_, right_}) {
        auto& offers = channel(c).offers;
        std::erase_if(offers, [](Offer* o) { return o->state.load() != 0; });
        for (Offer* candidate : offers) {
          if (candidate->agent == id_) continue;
          int expected = 0;
          if (candidate->state.compare_exchange_strong(expected, c + 1,
                                                       std::memory_order_acq_rel)) {
            matched = candidate;
            matched_on = c;
            break;
          }
        }
        if (matched != nullptr) break;
      }

      if (matched != nullptr) {
        // Rendezvous committed: retract our own pending offer, if any (both
        // of its channels are locked by us, so the CAS cannot race a claim).
        if (mine != nullptr) {
          int expected = 0;
          mine->state.compare_exchange_strong(expected, -1, std::memory_order_acq_rel);
          mine = nullptr;
        }
        channel(matched_on).syncs.fetch_add(1, std::memory_order_relaxed);
        s_.rendezvous.fetch_add(1, std::memory_order_relaxed);
        count_sync();
      } else if (mine == nullptr) {
        // Nothing to match: publish our mixed choice on both channels.
        pool_.emplace_back();
        mine = &pool_.back();
        mine->agent = id_;
        mine->is_send = (id_ % 2 == 0);
        channel(left_).offers.push_back(mine);
        channel(right_).offers.push_back(mine);
      }
      release_both();

      // Wait a bounded while for a peer to claim our offer before retrying.
      for (int spin = 0; spin < 512 && mine != nullptr; ++spin) {
        if (mine->state.load(std::memory_order_acquire) != 0 ||
            s_.stop.load(std::memory_order_relaxed)) {
          break;
        }
        cpu_relax();
      }
    }
    // Final claim check so late rendezvous still count.
    if (mine != nullptr && mine->state.load(std::memory_order_acquire) > 0) count_sync();
  }

 private:
  /// Counts one rendezvous for this agent and ends the run once the
  /// targets are met (either side of a rendezvous may complete them).
  void count_sync() {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    if (s_.targets_met()) s_.stop.store(true, std::memory_order_relaxed);
  }

  Channel& channel(ForkId c) { return s_.channels[static_cast<std::size_t>(c)]; }

  /// GDP1-style two-channel acquisition: higher nr first (ties right),
  /// re-randomize on equality, single attempt on the second.
  bool acquire_both() {
    while (true) {
      if (s_.stop.load(std::memory_order_relaxed)) return false;
      const bool left_first = channel(left_).lock.nr() > channel(right_).lock.nr();
      const ForkId f = left_first ? left_ : right_;
      const ForkId g = left_first ? right_ : left_;
      for (std::uint32_t spins = 0; !channel(f).lock.try_take(id_); ++spins) {
        if (s_.stop.load(std::memory_order_relaxed)) return false;
        if ((spins & 0x3ff) == 0x3ff) std::this_thread::yield();
        cpu_relax();
      }
      if (channel(f).lock.nr() == channel(g).lock.nr()) {
        channel(f).lock.set_nr(id_, static_cast<std::uint16_t>(rng_.uniform_int(1, s_.m)));
      }
      if (channel(g).lock.try_take(id_)) return true;
      channel(f).lock.release(id_);
      cpu_relax();
    }
  }

  void release_both() {
    channel(left_).lock.release(id_);
    channel(right_).lock.release(id_);
  }

  Shared& s_;
  const PhilId id_;
  rng::Rng rng_;
  std::atomic<std::uint64_t>& syncs_;
  const ForkId left_, right_;
  std::deque<Offer>& pool_;  // stable addresses in Shared; outlives every agent
};

}  // namespace

bool ChoiceResult::everyone_synced() const {
  return std::all_of(syncs_of.begin(), syncs_of.end(), [](std::uint64_t s) { return s > 0; });
}

ChoiceResult run_guarded_choice(const graph::Topology& t, const ChoiceConfig& config) {
  GDP_CHECK_MSG(config.target_syncs > 0, "run_guarded_choice needs a sync target");

  Shared shared(t);
  shared.target = config.target_syncs;
  shared.m = config.m != 0 ? config.m : t.num_forks();
  GDP_CHECK_MSG(shared.m >= t.num_forks(), "GDP requires m >= number of channels");
  for (ForkId c = 0; c < t.num_forks(); ++c) shared.channels.emplace_back();

  rng::Rng seeder(config.seed);

  // gdp-lint: allow(wall-clock) — duration cutoff for a real-concurrency harness;
  // sync counts are reported per-run, never diffed against golden files
  const auto start = std::chrono::steady_clock::now();
  bool timed_out = false;
  {
    // gdp-lint: allow(raw-thread) — the point of this harness is one OS thread
    // per agent racing on real mutexes; the deterministic pool does not apply
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(t.num_phils()));
    for (PhilId a = 0; a < t.num_phils(); ++a) {
      const std::uint64_t seed = seeder.split(static_cast<std::uint64_t>(a)).next_u64();
      threads.emplace_back([&shared, a, seed] {
        Agent agent(shared, a, seed);
        agent.run();
      });
    }
    const auto deadline = start + config.max_duration;
    while (!shared.stop.load(std::memory_order_relaxed)) {
      if (std::chrono::steady_clock::now() >= deadline) {  // gdp-lint: allow(wall-clock) — deadline poll, timing-only
        timed_out = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    shared.stop.store(true, std::memory_order_relaxed);
  }
  const auto end = std::chrono::steady_clock::now();  // gdp-lint: allow(wall-clock) — elapsed-seconds report only

  ChoiceResult result;
  for (const auto& s : shared.syncs_of) result.syncs_of.push_back(s.load());
  result.total_syncs = shared.rendezvous.load();
  for (ForkId c = 0; c < t.num_forks(); ++c) {
    result.syncs_on.push_back(shared.channels[static_cast<std::size_t>(c)].syncs.load());
  }
  result.elapsed_seconds = std::chrono::duration<double>(end - start).count();
  result.syncs_per_second = result.elapsed_seconds > 0
                                ? static_cast<double>(result.total_syncs) / result.elapsed_seconds
                                : 0.0;
  result.violations = shared.violations.load();
  result.timed_out = timed_out;
  return result;
}

}  // namespace gdp::pi
