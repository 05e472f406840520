#include "gdp/common/pool.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/common/thread_annotations.hpp"
#include "gdp/obs/obs.hpp"

namespace gdp::common {

unsigned effective_threads(int requested, std::size_t tasks) {
  GDP_CHECK_MSG(requested >= 0, "thread count must be >= 0 (0 = hardware concurrency)");
  unsigned n = requested > 0 ? static_cast<unsigned>(requested)
                             : std::thread::hardware_concurrency();
  if (n < 1) n = 1;
  if (tasks < 1) tasks = 1;
  if (n > tasks) n = static_cast<unsigned>(tasks);
  return n;
}

void run_workers(unsigned threads, const std::function<void(unsigned)>& body) {
  if (threads <= 1) {
    body(0);
    return;
  }
  std::exception_ptr first_error;
  // Function-local capability: serializes the first_error capture across
  // workers; joined before the unlocked read below, so GDP_GUARDED_BY (a
  // member/global attribute) cannot express the discipline.
  Mutex error_mutex;  // gdp-lint: allow(unannotated-mutex) — guards the local first_error; see above
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      try {
        body(w);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t total, std::size_t grain, int threads,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  GDP_CHECK_MSG(grain >= 1, "parallel_for needs grain >= 1");
  const std::size_t blocks = total / grain + (total % grain != 0 ? 1 : 0);
  GDP_CHECK_MSG(blocks < (std::uint64_t{1} << 32), "parallel_for supports < 2^32 blocks, got "
                                                       << blocks);
  const unsigned n = effective_threads(threads, blocks);
  if (total == 0) return;
  if (n <= 1) {
    body(0, total);
    return;
  }

  // Timing plane, all three: steals depend on scheduling outright, and the
  // call/block totals describe how work was *executed*, not what work was
  // done — only calls that reach the pool count, and whether one does
  // depends on the thread count. References resolved once; the registry
  // never moves them.
  static obs::Counter& calls =
      obs::Registry::global().counter("pool.parallel_for_calls", obs::Plane::kTiming);
  static obs::Counter& tasks = obs::Registry::global().counter("pool.tasks", obs::Plane::kTiming);
  static obs::Counter& steals =
      obs::Registry::global().counter("pool.steals", obs::Plane::kTiming);
  calls.increment();
  tasks.add(blocks);

  // Contiguous initial shards of blocks; the steal protocol rebalances from
  // there.
  std::vector<StealRange> shards(n);
  for (unsigned w = 0; w < n; ++w) {
    shards[w].reset(static_cast<std::uint32_t>(blocks * w / n),
                    static_cast<std::uint32_t>(blocks * (w + 1) / n));
  }

  std::atomic<bool> abort{false};
  run_workers(n, [&](unsigned me) {
    // One span per worker ("pool.worker" on the worker's own timeline
    // track), with a steal instant per successful steal and a running
    // blocks-run counter sample at each steal and at exit.
    obs::Span worker_span("pool.worker");
    std::uint64_t ran = 0;
    try {
      while (!abort.load(std::memory_order_relaxed)) {
        if (const auto b = shards[me].pop_front()) {
          const std::size_t lo = std::size_t{*b} * grain;
          body(lo, std::min(total, lo + grain));
          ++ran;
          continue;
        }
        // Own shard drained: steal the back half of the fullest victim into
        // our shard (so others can steal from us in turn).
        unsigned victim = n;
        std::uint32_t best = 0;
        for (unsigned v = 0; v < n; ++v) {
          if (v == me) continue;
          const std::uint32_t r = shards[v].remaining();
          if (r > best) {
            best = r;
            victim = v;
          }
        }
        if (victim == n) break;  // everything claimed everywhere
        if (const auto stolen = shards[victim].steal_half()) {
          steals.increment();
          obs::timeline::instant("pool.steal");
          obs::timeline::counter_sample("pool.tasks_run", static_cast<double>(ran));
          shards[me].reset(stolen->first, stolen->second);
        }
      }
    } catch (...) {
      abort.store(true, std::memory_order_relaxed);
      throw;  // run_workers records and rethrows the first one
    }
    obs::timeline::counter_sample("pool.tasks_run", static_cast<double>(ran));
  });
}

}  // namespace gdp::common
