#include "gdp/common/pool.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/common/thread_annotations.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"

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

void parallel_for(std::size_t total, int threads, const std::function<void(std::uint32_t)>& fn) {
  GDP_CHECK_MSG(total < (std::uint64_t{1} << 32), "parallel_for supports < 2^32 tasks, got "
                                                      << total);
  if (total == 0) return;
  const unsigned n = effective_threads(threads, total);

  // Timing plane, all three: steals depend on scheduling outright, and the
  // call/task totals describe how work was *executed*, not what work was
  // done — seq-vs-par dispatch (parallel_chunk_max) keys on the requested
  // thread count, so these totals are not thread-count invariant.
  // References resolved once; the registry never moves them.
  static obs::Counter& calls =
      obs::Registry::global().counter("pool.parallel_for_calls", obs::Plane::kTiming);
  static obs::Counter& tasks = obs::Registry::global().counter("pool.tasks", obs::Plane::kTiming);
  calls.increment();
  tasks.add(total);

  if (n <= 1) {
    for (std::uint32_t id = 0; id < total; ++id) fn(id);
    return;
  }

  // Contiguous initial shards; the steal protocol rebalances from there.
  std::vector<StealRange> shards(n);
  for (unsigned w = 0; w < n; ++w) {
    shards[w].reset(static_cast<std::uint32_t>(total * w / n),
                    static_cast<std::uint32_t>(total * (w + 1) / n));
  }

  std::atomic<bool> abort{false};
  static obs::Counter& steals =
      obs::Registry::global().counter("pool.steals", obs::Plane::kTiming);
  run_workers(n, [&](unsigned me) {
    // One timeline slice per worker ("pool.worker" on the worker's own
    // track), with a steal instant per successful steal and a running
    // tasks-run counter sample at each steal and at exit.
    obs::timeline::ScopedSlice worker_slice("pool.worker");
    std::uint64_t ran = 0;
    try {
      while (!abort.load(std::memory_order_relaxed)) {
        if (const auto id = shards[me].pop_front()) {
          fn(*id);
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

double parallel_chunk_max(std::size_t total, int threads,
                          const std::function<double(std::size_t, std::size_t)>& body) {
  constexpr std::size_t kChunk = 4'096;  // boundaries depend on total only
  if (total == 0) return -std::numeric_limits<double>::infinity();
  const std::size_t chunks = (total + kChunk - 1) / kChunk;
  if (chunks == 1 || effective_threads(threads, chunks) <= 1) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < chunks; ++c) {
      best = std::max(best, body(c * kChunk, std::min(total, (c + 1) * kChunk)));
    }
    return best;
  }
  std::vector<double> partial(chunks, -std::numeric_limits<double>::infinity());
  parallel_for(chunks, threads, [&](std::uint32_t c) {
    partial[c] = body(std::size_t{c} * kChunk, std::min(total, (std::size_t{c} + 1) * kChunk));
  });
  double best = partial[0];
  for (std::size_t c = 1; c < chunks; ++c) best = std::max(best, partial[c]);
  return best;
}

}  // namespace gdp::common
