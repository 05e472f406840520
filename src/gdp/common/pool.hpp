// Work-stealing parallelism primitives shared by the experiment Runner
// (gdp::exp), the explorer (mdp::explore) and the quant sweeps.
//
// Two layers:
//
//   * StealRange — a contiguous task range packed into one 64-bit word.
//     The owner pops from the head, thieves CAS the back half off the
//     tail; a single CAS keeps both linearizable. This is the entire
//     queue machinery parallel_for needs, because its tasks (grain-sized
//     blocks of indices) are heavyweight relative to one CAS.
//
//   * run_workers / parallel_for — spawn-join helpers. parallel_for is the
//     one parallel loop: it splits [0, total) into grain-sized blocks,
//     runs body(lo, hi) per block on a steal-half pool and rethrows the
//     first worker exception after the pool drains. With one block or one
//     worker it calls body(0, total) inline on the calling thread, so a
//     threads==1 configuration is byte-for-byte the sequential execution.
//     The per-index overload is the grain-1 adapter over the same loop.
//
// Nothing here imposes an ordering on task completion: callers that need
// deterministic output park results at their block or task index and fold
// them in index order afterwards (see gdp/exp/runner.cpp,
// gdp/mdp/level_explore.cpp, the quant residuals in
// gdp/mdp/quant/quant_impl.hpp).
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

/// Runs body(lo, hi) over [0, total) split into blocks of `grain` indices
/// (the last one shorter): block b covers [b * grain, min(total, (b + 1) *
/// grain)), so boundaries depend only on total and grain. The blocks run
/// on a steal-half work-stealing pool of `threads` workers (see
/// effective_threads for the 0 convention): each worker owns a contiguous
/// shard of blocks, pops from its front, and when empty steals the back
/// half of the fullest other shard. With one block or one worker the call
/// is body(0, total) inline instead. An exception in any block aborts the
/// remaining blocks and is rethrown after the pool drains. body must be
/// safe to call concurrently on disjoint ranges. grain >= 1, fewer than
/// 2^32 blocks.
void parallel_for(std::size_t total, std::size_t grain, int threads,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Per-index form: fn(id) for every id in [0, total), one block per index.
inline void parallel_for(std::size_t total, int threads,
                         const std::function<void(std::uint32_t)>& fn) {
  parallel_for(total, 1, threads, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t id = lo; id < hi; ++id) fn(static_cast<std::uint32_t>(id));
  });
}

}  // namespace gdp::common
