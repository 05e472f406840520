// gdp::common::parallel_for — the one parallel loop.
//
// Pins the contract every caller builds on: each index of [0, total) is
// covered by exactly one body call; the pool's blocks are the grain
// partition of [0, total), whatever the thread count (one worker or one
// block runs body(0, total) inline instead); a throwing block surfaces as
// one rethrow after the pool drains; negative thread counts and a zero
// grain are precondition errors; and the per-index overload is the grain-1
// form of the same loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/common/pool.hpp"

namespace gdp::common {
namespace {

constexpr std::size_t kGrain = 64;

using Block = std::pair<std::size_t, std::size_t>;

/// Thread counts under test; 0 is hardware concurrency.
std::vector<int> thread_counts() { return {1, 2, 4, 8, 0}; }

/// Runs one parallel_for and returns its body calls sorted by lo, after
/// checking that every index was visited exactly once.
std::vector<Block> run_and_collect(std::size_t total, std::size_t grain, int threads) {
  std::vector<std::atomic<std::uint32_t>> visits(total);
  // One slot per call, claimed with a fetch_add: no two calls share a slot,
  // and parallel_for joins its workers before the slots are read.
  std::vector<Block> calls(total / grain + 2);
  std::atomic<std::size_t> next{0};
  parallel_for(total, grain, threads, [&](std::size_t lo, std::size_t hi) {
    const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
    if (k < calls.size()) calls[k] = {lo, hi};
    for (std::size_t i = lo; i < hi; ++i) visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(visits[i].load(), 1u) << "index " << i;
  }
  EXPECT_LE(next.load(), calls.size());
  calls.resize(std::min(next.load(), calls.size()));
  std::sort(calls.begin(), calls.end());
  return calls;
}

/// The body calls parallel_for promises: the grain partition when the pool
/// runs, one inline body(0, total) otherwise, nothing for an empty range.
std::vector<Block> expected_blocks(std::size_t total, std::size_t grain, int threads) {
  if (total == 0) return {};
  const std::size_t blocks = (total + grain - 1) / grain;
  if (effective_threads(threads, blocks) <= 1) return {{0, total}};
  std::vector<Block> out;
  for (std::size_t lo = 0; lo < total; lo += grain) {
    out.emplace_back(lo, std::min(total, lo + grain));
  }
  return out;
}

TEST(ParallelFor, EveryIndexOnceInGrainAlignedBlocks) {
  const std::size_t totals[] = {0, 1, kGrain - 1, kGrain, kGrain + 1, 100 * kGrain + 7};
  for (const std::size_t total : totals) {
    for (const int threads : thread_counts()) {
      SCOPED_TRACE("total=" + std::to_string(total) + " threads=" + std::to_string(threads));
      const std::vector<Block> calls = run_and_collect(total, kGrain, threads);
      EXPECT_EQ(calls, expected_blocks(total, kGrain, threads));
      for (const auto& [lo, hi] : calls) {
        EXPECT_EQ(lo % kGrain, 0u);
        EXPECT_TRUE(hi % kGrain == 0 || hi == total);
      }
    }
  }
}

TEST(ParallelFor, PoolBlocksAreIdenticalAtEveryThreadCount) {
  constexpr std::size_t kTotal = 100 * kGrain + 7;
  const std::vector<Block> reference = run_and_collect(kTotal, kGrain, 2);
  ASSERT_EQ(reference.size(), 101u);
  for (const int threads : {4, 8, 0}) {
    if (effective_threads(threads, reference.size()) <= 1) continue;  // one-core machine
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_and_collect(kTotal, kGrain, threads), reference);
  }
}

TEST(ParallelFor, ThrowingBlockIsRethrownOnceAfterTheDrain) {
  constexpr std::size_t kTotal = 100 * kGrain + 7;
  for (const int threads : thread_counts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::atomic<int> in_flight{0};
    int caught = 0;
    try {
      parallel_for(kTotal, kGrain, threads, [&](std::size_t lo, std::size_t hi) {
        struct Guard {
          std::atomic<int>& n;
          ~Guard() { n.fetch_sub(1); }
        } guard{in_flight};
        in_flight.fetch_add(1);
        if (lo <= 37 * kGrain && 37 * kGrain < hi) throw std::runtime_error("block 37");
      });
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_EQ(std::string(e.what()), "block 37");
      EXPECT_EQ(in_flight.load(), 0);  // every worker drained before the rethrow
    }
    EXPECT_EQ(caught, 1);
  }
}

TEST(ParallelFor, EveryBlockThrowingStillRethrowsOne) {
  int caught = 0;
  try {
    parallel_for(64 * kGrain, kGrain, 4,
                 [](std::size_t, std::size_t) { throw std::runtime_error("every block"); });
  } catch (const std::runtime_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
}

TEST(ParallelFor, BadArgumentsArePreconditionErrors) {
  const auto body = [](std::size_t, std::size_t) {};
  EXPECT_THROW(parallel_for(10, kGrain, -1, body), PreconditionError);
  EXPECT_THROW(parallel_for(0, kGrain, -3, body), PreconditionError);
  EXPECT_THROW(parallel_for(10, 0, 1, body), PreconditionError);
  EXPECT_THROW(parallel_for(10, -1, [](std::uint32_t) {}), PreconditionError);
}

TEST(ParallelFor, PerIndexFormVisitsEveryIdOnce) {
  const std::size_t totals[] = {0, 1, 7, 1'000};
  for (const std::size_t total : totals) {
    for (const int threads : thread_counts()) {
      SCOPED_TRACE("total=" + std::to_string(total) + " threads=" + std::to_string(threads));
      std::vector<std::atomic<std::uint32_t>> visits(total);
      parallel_for(total, threads, [&](std::uint32_t id) {
        visits[id].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(visits[i].load(), 1u) << "id " << i;
    }
  }
}

}  // namespace
}  // namespace gdp::common
