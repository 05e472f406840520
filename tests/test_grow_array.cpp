// common::GrowArray, the explorer's copy-free growable storage: growth keeps
// the contents across many remaps, copies are deep, moves steal the
// mapping, empty arrays own nothing, parallel writers can fill a grown tail,
// and a Model built on it round-trips through Model::build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "gdp/common/grow_array.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/mdp/model.hpp"

namespace gdp::common {
namespace {

TEST(GrowArray, EmptyArraysOwnNothing) {
  GrowArray<std::uint64_t> a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.begin(), a.end());

  a.append(nullptr, nullptr);  // an empty range maps nothing
  EXPECT_EQ(a.data(), nullptr);

  const GrowArray<std::uint64_t> copy(a);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.data(), nullptr);
  GrowArray<std::uint64_t> moved(std::move(a));
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.data(), nullptr);
}

TEST(GrowArray, GrowthKeepsTheContents) {
  // ~48 MB of words: many doublings, the later ones far above glibc's mmap
  // threshold, so the remaps move mappings of tens of megabytes.
  constexpr std::size_t kWords = 6'000'000;
  GrowArray<std::uint64_t> a;
  std::size_t capacity = 0;
  for (std::size_t i = 0; i < kWords; ++i) {
    a.push_back(i * 0x9e3779b97f4a7c15ULL);
    ASSERT_GE(a.capacity(), capacity);
    capacity = a.capacity();
  }
  ASSERT_EQ(a.size(), kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    ASSERT_EQ(a[i], i * 0x9e3779b97f4a7c15ULL) << "word " << i;
  }
  EXPECT_EQ(a.back(), (kWords - 1) * 0x9e3779b97f4a7c15ULL);
}

TEST(GrowArray, GrowAppendAndResize) {
  const std::uint32_t head[] = {1, 2, 3};
  GrowArray<std::uint32_t> a(head, 3);
  ASSERT_EQ(a.size(), 3u);

  std::uint32_t* tail = a.grow(4);  // left for the caller to write
  ASSERT_EQ(a.size(), 7u);
  ASSERT_EQ(tail, a.data() + 3);
  for (std::uint32_t i = 0; i < 4; ++i) tail[i] = 10 + i;

  const std::vector<std::uint32_t> more(5000, 7);
  a.append(more.data(), more.data() + more.size());
  a.resize(a.size() + 2, 99);
  const std::vector<std::uint32_t> got(a.begin(), a.end());
  std::vector<std::uint32_t> want{1, 2, 3, 10, 11, 12, 13};
  want.insert(want.end(), more.begin(), more.end());
  want.insert(want.end(), {99, 99});
  EXPECT_EQ(got, want);

  a.resize(2, 0);  // shrinking keeps the prefix
  EXPECT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()), (std::vector<std::uint32_t>{1, 2}));

  const std::size_t capacity = a.capacity();
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.capacity(), capacity);
}

TEST(GrowArray, CopiesAreDeepAndMovesSteal) {
  GrowArray<std::uint64_t> a;
  for (std::uint64_t i = 0; i < 10'000; ++i) a.push_back(i);

  GrowArray<std::uint64_t> copy(a);
  ASSERT_NE(copy.data(), a.data());
  copy[0] = 42;
  EXPECT_EQ(a[0], 0u);
  EXPECT_TRUE(std::equal(a.begin() + 1, a.end(), copy.begin() + 1));

  const std::uint64_t* storage = a.data();
  GrowArray<std::uint64_t> moved(std::move(a));
  EXPECT_EQ(moved.data(), storage);
  EXPECT_EQ(moved.size(), 10'000u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(a.data(), nullptr);

  copy = std::move(moved);  // releases copy's old mapping
  EXPECT_EQ(copy.data(), storage);
  EXPECT_EQ(copy[0], 0u);
  EXPECT_EQ(copy[9'999], 9'999u);
}

TEST(GrowArray, ParallelWritersFillAGrownTail) {
  // The explorer's pattern: grow uninitialized on one thread, then let the
  // pool's blocks write disjoint ranges of the tail (first touch of its
  // pages), then grow again over the written prefix.
  GrowArray<std::uint64_t> a;
  std::size_t expected_size = 0;
  for (int round = 0; round < 4; ++round) {
    const std::size_t base = a.size();
    const std::size_t n = 300'000 * static_cast<std::size_t>(round + 1);
    std::uint64_t* tail = a.grow(n);
    parallel_for(n, 4'096, 4, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) tail[i] = base + i;
    });
    expected_size += n;
  }
  ASSERT_EQ(a.size(), expected_size);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], i) << "word " << i;
}

TEST(GrowArray, ModelBuildRoundTrip) {
  // Two philosophers, three states: 0 -> {1, 2} or itself, 1 -> 2, and 2
  // on the frontier.
  const std::vector<std::uint64_t> offsets{0, 2, 3, 4, 4, 4, 4};
  const std::vector<mdp::Outcome> outcomes{{0.25f, 1}, {0.75f, 2}, {1.0f, 0}, {1.0f, 2}};
  const std::vector<std::uint64_t> eaters{0, 0b01, 0b10};
  const std::vector<bool> frontier{false, false, true};
  const mdp::Model model = mdp::Model::build(2, offsets, outcomes, eaters, frontier, true);

  const auto expect_round_trip = [&](const mdp::Model& m) {
    ASSERT_EQ(m.num_states(), 3u);
    ASSERT_EQ(m.num_phils(), 2);
    EXPECT_TRUE(m.truncated());
    std::vector<mdp::Outcome> rows;
    for (mdp::StateId s = 0; s < m.num_states(); ++s) {
      EXPECT_EQ(m.eaters(s), eaters[s]);
      EXPECT_EQ(m.frontier(s), frontier[s]);
      for (int p = 0; p < m.num_phils(); ++p) {
        const auto [begin, end] = m.row(s, p);
        const std::size_t r = s * 2 + static_cast<std::size_t>(p);
        EXPECT_EQ(static_cast<std::uint64_t>(end - begin), offsets[r + 1] - offsets[r]);
        rows.insert(rows.end(), begin, end);
      }
    }
    ASSERT_EQ(rows.size(), outcomes.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].next, outcomes[i].next);
      EXPECT_EQ(rows[i].prob, outcomes[i].prob);
    }
  };
  expect_round_trip(model);
  const mdp::Model copy = model;  // the storage copies deeply
  expect_round_trip(copy);
  mdp::Model moved = model;
  const mdp::Model taken = std::move(moved);
  expect_round_trip(taken);

  // The GrowArray overload adopts its arrays: the rows stay where they were.
  GrowArray<mdp::Outcome> grown_outcomes(outcomes.data(), outcomes.size());
  const mdp::Outcome* const rows_at = grown_outcomes.data();
  const mdp::Model adopted = mdp::Model::build(
      2, GrowArray<std::uint64_t>(offsets.data(), offsets.size()), std::move(grown_outcomes),
      GrowArray<std::uint64_t>(eaters.data(), eaters.size()), frontier, true);
  expect_round_trip(adopted);
  EXPECT_EQ(adopted.row(0, 0).first, rows_at);
}

}  // namespace
}  // namespace gdp::common
