// Work-stealing parallelism primitives shared by the experiment Runner
// (gdp::exp), the explorer (mdp::explore) and the quant sweeps.
//
// Two layers:
//
//   * StealRange — a contiguous task range packed into one 64-bit word.
//     The owner pops from the head, thieves CAS the back half off the
//     tail; a single CAS keeps both linearizable. This is the entire
//     queue machinery parallel_for needs, because the workloads using it
//     (simulation trials, state expansions) are heavyweight relative to
//     one CAS.
//
//   * run_workers / parallel_for — spawn-join helpers. parallel_for
//     executes fn(0..total-1) on a steal-half pool and rethrows the first
//     worker exception after the pool drains; with one worker it runs
//     inline on the calling thread, so a threads==1 configuration is
//     byte-for-byte the sequential execution.
//
// Nothing here imposes an ordering on task completion: callers that need
// deterministic output park results at their task index and fold them in
// index order afterwards (see gdp/exp/runner.cpp, gdp/mdp/level_explore.cpp).
//
// Concurrency discipline: everything in this header is a single atomic word
// (StealRange's packed range), so there is no capability to annotate — the
// lock-protected structures built on top of the pool use the annotated
// gdp::common::Mutex from gdp/common/thread_annotations.hpp, which Clang's
// -Wthread-safety checks under cmake -DGDP_THREAD_SAFETY=ON.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

namespace gdp::common {

/// A contiguous range of task ids packed as (head << 32) | tail. The owner
/// pops from the head, thieves CAS the back half off the tail.
struct alignas(64) StealRange {
  std::atomic<std::uint64_t> range{0};

  static constexpr std::uint64_t pack(std::uint32_t head, std::uint32_t tail) {
    return (static_cast<std::uint64_t>(head) << 32) | tail;
  }
  static constexpr std::uint32_t head(std::uint64_t r) {
    return static_cast<std::uint32_t>(r >> 32);
  }
  static constexpr std::uint32_t tail(std::uint64_t r) { return static_cast<std::uint32_t>(r); }

  void reset(std::uint32_t lo, std::uint32_t hi) {
    range.store(pack(lo, hi), std::memory_order_release);
  }

  std::optional<std::uint32_t> pop_front() {
    std::uint64_t r = range.load(std::memory_order_acquire);
    while (head(r) < tail(r)) {
      if (range.compare_exchange_weak(r, pack(head(r) + 1, tail(r)), std::memory_order_acq_rel)) {
        return head(r);
      }
    }
    return std::nullopt;
  }

  /// Steals the back half [tail - k, tail); returns the stolen range.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> steal_half() {
    std::uint64_t r = range.load(std::memory_order_acquire);
    while (head(r) < tail(r)) {
      const std::uint32_t k = (tail(r) - head(r) + 1) / 2;
      if (range.compare_exchange_weak(r, pack(head(r), tail(r) - k), std::memory_order_acq_rel)) {
        return std::make_pair(tail(r) - k, tail(r));
      }
    }
    return std::nullopt;
  }

  std::uint32_t remaining() const {
    const std::uint64_t r = range.load(std::memory_order_relaxed);
    return tail(r) - head(r);
  }
};

/// Worker count actually used for `tasks` tasks: `requested` if positive,
/// std::thread::hardware_concurrency() if 0; always clamped to [1, tasks]
/// (with tasks == 0 treated as 1). Throws PreconditionError on negative.
unsigned effective_threads(int requested, std::size_t tasks);

/// Runs body(worker_id) on `threads` OS threads and joins them all; the
/// first exception thrown by any worker is rethrown after the join.
/// threads <= 1 calls body(0) inline on the calling thread.
void run_workers(unsigned threads, const std::function<void(unsigned)>& body);

/// Executes fn(id) for every id in [0, total) on a steal-half work-stealing
/// pool of `threads` workers (see effective_threads for the 0 convention).
/// Each worker owns a contiguous shard, pops from its front, and when empty
/// steals the back half of the fullest other shard. An exception in any
/// task aborts the remaining tasks and is rethrown after the pool drains.
/// fn must be safe to call concurrently for distinct ids. total < 2^32.
void parallel_for(std::size_t total, int threads, const std::function<void(std::uint32_t)>& fn);

/// Deterministic parallel max-reduction over contiguous index chunks:
/// partitions [0, total) into fixed chunks (boundaries depend only on
/// `total`, never on the worker count), runs body(lo, hi) per chunk on the
/// pool, and folds the per-chunk results in ascending chunk order. Because
/// IEEE max is associative and commutative and the fold order is pinned,
/// the result is bit-identical at every thread count — the reduction the
/// quantitative checker's Bellman sweeps use for residuals and interval
/// widths. Returns -inf for total == 0.
double parallel_chunk_max(std::size_t total, int threads,
                          const std::function<double(std::size_t, std::size_t)>& body);

}  // namespace gdp::common
