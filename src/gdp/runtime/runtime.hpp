// Real-concurrency runtime: one std::thread per philosopher, lock-free
// atomic forks, OS scheduling as the adversary. Validates that the
// algorithms are not simulation artifacts and measures throughput /
// latency / fairness at hardware speed (experiment E12).
//
// Supported algorithms: every two-fork program (lr1, lr2, gdp1, gdp2,
// gdp2c, ordered, colored; the workers read their algos/two_fork.hpp table
// row) and ticket. arbiter is a simulation-only baseline. colored runs on
// even classic rings only, as its validate() demands. ticket is
// deadlock-free only on the classic ring (algos/ticket.hpp): off the ring
// its philosophers can close a circular wait, so a run may end on its
// duration with few meals, and a duration is required there.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gdp/graph/topology.hpp"

namespace gdp::runtime {

struct RuntimeConfig {
  std::string algorithm = "gdp1";
  std::uint64_t seed = 1;

  /// Stop conditions: whichever hits first. A zero disables it; at least
  /// one must be set. A ticket run off the classic ring needs a duration:
  /// a circular wait would keep a meal target alone from ever being hit.
  std::chrono::milliseconds duration{0};
  std::uint64_t target_meals = 0;

  /// GDP numbering range (0 = k) and LR draw bias.
  int m = 0;
  double p_left = 0.5;

  /// Busy work inside think/eat (iterations of a pause loop) to shape
  /// contention; 0 = immediately hungry / instant meals.
  int think_work = 0;
  int eat_work = 0;
};

struct RuntimeResult {
  std::uint64_t total_meals = 0;
  std::vector<std::uint64_t> meals_of;
  double elapsed_seconds = 0.0;
  double meals_per_second = 0.0;

  /// Hunger (hungry -> both forks) latency stats, nanoseconds.
  double hunger_p50_ns = 0.0;
  double hunger_p99_ns = 0.0;
  double hunger_max_ns = 0.0;

  /// Mutual-exclusion violations observed by the eating canary (must be 0).
  std::uint64_t exclusion_violations = 0;

  bool everyone_ate() const;
};

/// Runs the configured algorithm on `t` with real threads. Throws
/// PreconditionError for unsupported algorithm names or configs.
RuntimeResult run_threads(const graph::Topology& t, const RuntimeConfig& config);

/// Algorithm names run_threads accepts.
std::vector<std::string> runtime_algorithms();

}  // namespace gdp::runtime
