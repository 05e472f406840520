#include "gdp/runtime/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "gdp/algos/algorithm.hpp"
#include "gdp/algos/two_fork.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/algorithms.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/rng/rng.hpp"
#include "gdp/runtime/atomic_fork.hpp"
#include "gdp/runtime/shared_books.hpp"

namespace gdp::runtime {
namespace {

/// The classic ring: one connected cycle with as many forks as philosophers,
/// every fork shared by two. Only there do n-1 tickets rule out circular
/// wait (see algos/ticket.hpp).
bool is_classic_ring(const graph::Topology& t) {
  if (t.num_forks() != t.num_phils() || !graph::is_connected(t)) return false;
  for (ForkId f = 0; f < t.num_forks(); ++f) {
    if (t.degree(f) != 2) return false;
  }
  return true;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Calibrated-ish busy work for think/eat phases.
inline void busy_work(int iterations) {
  for (int i = 0; i < iterations; ++i) cpu_relax();
}

struct Shared {
  explicit Shared(const graph::Topology& t) : topology(t) {}
  const graph::Topology& topology;
  std::deque<AtomicFork> forks;                  // stable addresses, non-movable ok
  std::deque<std::atomic<int>> eaters_canary;    // per fork: concurrent users
  std::vector<std::unique_ptr<ForkBooks>> books;
  std::atomic<std::int32_t> tickets{0};

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> meals{0};
  std::atomic<std::uint64_t> violations{0};
  std::uint64_t target_meals = 0;

  /// The two-fork table row the workers run; nullptr runs ticket, which
  /// takes a ticket, then its left fork, then waits for its right.
  const algos::TwoForkVariant* row = nullptr;
  int m = 0;
  double p_left = 0.5;
  int think_work = 0;
  int eat_work = 0;
};

struct WorkerOutput {
  std::uint64_t meals = 0;
  std::vector<std::uint64_t> hunger_ns;  // capped sample of hunger latencies
};

constexpr std::size_t kMaxLatencySamples = 200'000;

class Worker {
 public:
  Worker(Shared& shared, PhilId id, std::uint64_t seed, WorkerOutput& out)
      : s_(shared),
        id_(id),
        rng_(seed),
        out_(out),
        left_(shared.topology.left_of(id)),
        right_(shared.topology.right_of(id)),
        slot_left_(shared.topology.slot_at(id, Side::kLeft)),
        slot_right_(shared.topology.slot_at(id, Side::kRight)),
        ticket_(shared.row == nullptr),
        courteous_(!ticket_ && shared.row->courteous) {}

  void run() {
    while (!s_.stop.load(std::memory_order_relaxed)) {
      busy_work(s_.think_work);  // think
      // Hunger-latency episode starts here; obs::Stopwatch is the blessed
      // timing-plane clock, so no lint suppression is needed.
      const obs::Stopwatch hunger_clock;

      if (ticket_ && !acquire_ticket()) break;
      if (courteous_) {
        s_.books[static_cast<std::size_t>(left_)]->insert_request(slot_left_);
        s_.books[static_cast<std::size_t>(right_)]->insert_request(slot_right_);
      }

      if (!acquire_both()) {  // false only on stop
        cleanup_requests();
        break;
      }

      // --- eating: canary checks mutual exclusion on both forks.
      enter_canary(left_);
      enter_canary(right_);
      record_hunger(hunger_clock.elapsed_ns());
      busy_work(s_.eat_work);
      exit_canary(right_);
      exit_canary(left_);

      if (courteous_) {
        s_.books[static_cast<std::size_t>(left_)]->remove_request(slot_left_);
        s_.books[static_cast<std::size_t>(right_)]->remove_request(slot_right_);
        s_.books[static_cast<std::size_t>(left_)]->mark_used(slot_left_);
        s_.books[static_cast<std::size_t>(right_)]->mark_used(slot_right_);
      }
      s_.forks[static_cast<std::size_t>(left_)].release(id_);
      s_.forks[static_cast<std::size_t>(right_)].release(id_);
      if (ticket_) s_.tickets.fetch_add(1, std::memory_order_release);

      ++out_.meals;
      const std::uint64_t total = s_.meals.fetch_add(1, std::memory_order_relaxed) + 1;
      if (s_.target_meals != 0 && total >= s_.target_meals) {
        s_.stop.store(true, std::memory_order_relaxed);
      }
    }
    cleanup_requests();
  }

 private:
  AtomicFork& fork(ForkId f) { return s_.forks[static_cast<std::size_t>(f)]; }
  ForkBooks& books(ForkId f) { return *s_.books[static_cast<std::size_t>(f)]; }
  int slot_of(ForkId f) const { return f == left_ ? slot_left_ : slot_right_; }

  bool stopped() const { return s_.stop.load(std::memory_order_relaxed); }

  Side choose_first() {
    if (ticket_) return Side::kLeft;
    switch (s_.row->first) {
      case algos::FirstFork::kDraw:
        return rng_.choose_side(s_.p_left);
      case algos::FirstFork::kHigherNr:
        // Table 3 step 2: higher nr first, ties to the right.
        return fork(left_).nr() > fork(right_).nr() ? Side::kLeft : Side::kRight;
      case algos::FirstFork::kHigherId:
        return left_ > right_ ? Side::kLeft : Side::kRight;
      case algos::FirstFork::kColor:
        // Yellow (even id) left first, blue (odd id) right first.
        return id_ % 2 == 0 ? Side::kLeft : Side::kRight;
    }
    return Side::kLeft;
  }

  /// Spin until the first fork is taken (test-and-set; courteous rows add
  /// Cond).
  bool take_first(ForkId f) {
    for (std::uint32_t spins = 0;; ++spins) {
      if (stopped()) return false;
      if (fork(f).is_free() && (!courteous_ || books(f).cond_holds(slot_of(f))) &&
          fork(f).try_take(id_)) {
        return true;
      }
      if ((spins & 0x3ff) == 0x3ff) std::this_thread::yield();
      cpu_relax();
    }
  }

  /// Single attempt on the second fork (Cond first where the row says so).
  bool try_second(ForkId g) {
    if (!ticket_ && s_.row->cond_on_second && !books(g).cond_holds(slot_of(g))) return false;
    return fork(g).try_take(id_);
  }

  /// Hold-and-wait spin on the second fork (hold_second rows and ticket).
  bool wait_second(ForkId g) {
    for (std::uint32_t spins = 0;; ++spins) {
      if (stopped()) return false;
      if (try_second(g)) return true;
      if ((spins & 0x3ff) == 0x3ff) std::this_thread::yield();
      cpu_relax();
    }
  }

  bool acquire_both() {
    while (true) {
      if (stopped()) return false;
      const Side side = choose_first();
      const ForkId f = side == Side::kLeft ? left_ : right_;
      const ForkId g = side == Side::kLeft ? right_ : left_;
      if (!take_first(f)) return false;

      if (!ticket_ && s_.row->first == algos::FirstFork::kHigherNr &&
          fork(f).nr() == fork(g).nr()) {
        fork(f).set_nr(id_, static_cast<std::uint16_t>(rng_.uniform_int(1, s_.m)));
      }

      if (ticket_ || s_.row->hold_second) {
        if (!wait_second(g)) {
          fork(f).release(id_);
          return false;
        }
        return true;
      }
      if (try_second(g)) return true;
      fork(f).release(id_);  // release and re-choose (goto 2/3)
      cpu_relax();
    }
  }

  bool acquire_ticket() {
    while (true) {
      if (stopped()) return false;
      std::int32_t available = s_.tickets.load(std::memory_order_acquire);
      while (available > 0) {
        if (s_.tickets.compare_exchange_weak(available, available - 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
          return true;
        }
      }
      std::this_thread::yield();
    }
  }

  void enter_canary(ForkId f) {
    const int users = s_.eaters_canary[static_cast<std::size_t>(f)].fetch_add(
                          1, std::memory_order_acq_rel) +
                      1;
    if (users != 1 || fork(f).holder() != id_) {
      s_.violations.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void exit_canary(ForkId f) {
    s_.eaters_canary[static_cast<std::size_t>(f)].fetch_sub(1, std::memory_order_acq_rel);
  }

  /// One latency observation per hunger episode: the capped local sample
  /// keeps exact quantiles for RuntimeResult, and the obs timing-plane
  /// histogram carries the distribution into the run report (a no-op
  /// relaxed load when GDP_OBS is off).
  void record_hunger(std::uint64_t hunger_ns) {
    static obs::Histogram& hunger_hist =
        obs::Registry::global().histogram("runtime.hunger_ns", obs::Plane::kTiming);
    hunger_hist.record(hunger_ns);
    if (out_.hunger_ns.size() >= kMaxLatencySamples) return;
    out_.hunger_ns.push_back(hunger_ns);
  }

  void cleanup_requests() {
    if (!courteous_) return;
    books(left_).remove_request(slot_left_);
    books(right_).remove_request(slot_right_);
  }

  Shared& s_;
  const PhilId id_;
  rng::Rng rng_;
  WorkerOutput& out_;
  const ForkId left_, right_;
  const int slot_left_, slot_right_;
  const bool ticket_, courteous_;
};

double quantile_ns(std::vector<std::uint64_t>& all, double q) {
  if (all.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(all.size() - 1));
  std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(idx), all.end());
  return static_cast<double>(all[idx]);
}

}  // namespace

bool RuntimeResult::everyone_ate() const {
  return std::all_of(meals_of.begin(), meals_of.end(), [](std::uint64_t m) { return m > 0; });
}

std::vector<std::string> runtime_algorithms() {
  std::vector<std::string> names;
  for (const algos::TwoForkVariant& v : algos::two_fork_variants()) names.emplace_back(v.name);
  names.emplace_back("ticket");
  return names;
}

RuntimeResult run_threads(const graph::Topology& t, const RuntimeConfig& config) {
  GDP_CHECK_MSG(config.duration.count() > 0 || config.target_meals > 0,
                "run_threads needs a duration or a meal target");

  Shared shared(t);
  shared.row = algos::find_two_fork(config.algorithm);
  const bool ticket = config.algorithm == "ticket";
  GDP_CHECK_MSG(shared.row != nullptr || ticket,
                "run_threads: unsupported algorithm '" << config.algorithm << "'");
  GDP_CHECK_MSG(!ticket || config.duration.count() > 0 || is_classic_ring(t),
                "run_threads: ticket may deadlock off the classic ring, so a meal target "
                "alone may never be reached; set a duration");
  // The same preconditions as the simulated algorithm of that name: p_left
  // in [0, 1], m in [k, 65535], fork degree <= 64 for the book-keepers.
  const auto algo = algos::make_algorithm(config.algorithm,
                                          {.p_left = config.p_left, .m = config.m});
  algo->validate(t);
  shared.m = algo->effective_m(t);
  shared.p_left = config.p_left;
  shared.think_work = config.think_work;
  shared.eat_work = config.eat_work;
  shared.target_meals = config.target_meals;
  shared.tickets.store(t.num_phils() - 1);

  for (ForkId f = 0; f < t.num_forks(); ++f) {
    shared.forks.emplace_back();
    shared.eaters_canary.emplace_back(0);
    shared.books.push_back(shared.row != nullptr && shared.row->courteous
                               ? std::make_unique<ForkBooks>(t.degree(f))
                               : nullptr);
  }

  std::vector<WorkerOutput> outputs(static_cast<std::size_t>(t.num_phils()));
  rng::Rng seeder(config.seed);

  // Duration cutoff and elapsed-seconds report run off the blessed
  // timing-plane stopwatch; meal counts are per-run observations, never
  // golden-file inputs.
  const obs::Stopwatch run_clock;
  const auto duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(config.duration).count());
  {
    // gdp-lint: allow(raw-thread) — the point of this harness is one OS thread
    // per philosopher contending on real atomics; the deterministic pool's
    // park-at-index idiom does not apply to a live mutual-exclusion run
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(t.num_phils()));
    for (PhilId p = 0; p < t.num_phils(); ++p) {
      const std::uint64_t seed = seeder.split(static_cast<std::uint64_t>(p)).next_u64();
      threads.emplace_back([&shared, p, seed, &outputs] {
        Worker worker(shared, p, seed, outputs[static_cast<std::size_t>(p)]);
        worker.run();
      });
    }
    if (config.duration.count() > 0) {
      while (!shared.stop.load(std::memory_order_relaxed) &&
             run_clock.elapsed_ns() < duration_ns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      shared.stop.store(true, std::memory_order_relaxed);
    }
    // jthreads join here; meal-target runs stop themselves.
  }
  const double elapsed_seconds = run_clock.seconds();

  RuntimeResult result;
  result.meals_of.reserve(outputs.size());
  std::vector<std::uint64_t> all_latencies;
  for (const WorkerOutput& out : outputs) {
    result.meals_of.push_back(out.meals);
    result.total_meals += out.meals;
    all_latencies.insert(all_latencies.end(), out.hunger_ns.begin(), out.hunger_ns.end());
  }
  result.elapsed_seconds = elapsed_seconds;
  result.meals_per_second =
      result.elapsed_seconds > 0 ? static_cast<double>(result.total_meals) / result.elapsed_seconds
                                 : 0.0;
  result.hunger_p50_ns = quantile_ns(all_latencies, 0.50);
  result.hunger_p99_ns = quantile_ns(all_latencies, 0.99);
  if (!all_latencies.empty()) {
    result.hunger_max_ns =
        static_cast<double>(*std::max_element(all_latencies.begin(), all_latencies.end()));
  }
  result.exclusion_violations = shared.violations.load();
  return result;
}

}  // namespace gdp::runtime
