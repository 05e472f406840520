// Clean counterpart: each block sums into a local and parks it at its own
// index (lo / grain); the fold happens after the pool joins, on one
// thread, in index order.
#include <cstddef>
#include <vector>

namespace fixture {

void parallel_for(std::size_t total, std::size_t grain, int threads,
                  void (*body)(std::size_t, std::size_t));

double mean(const std::vector<double>& xs, int threads) {
  constexpr std::size_t kGrain = 1'024;
  std::vector<double> parked(xs.size() / kGrain + 1, 0.0);
  parallel_for(xs.size(), kGrain, threads, [&](std::size_t lo, std::size_t hi) {
    double partial = 0.0;
    for (std::size_t i = lo; i < hi; ++i) partial += xs[i];
    parked[lo / kGrain] = partial;
  });
  double total = 0.0;
  for (std::size_t b = 0; b < parked.size(); ++b) total += parked[b];
  return total / static_cast<double>(xs.size());
}

}  // namespace fixture
