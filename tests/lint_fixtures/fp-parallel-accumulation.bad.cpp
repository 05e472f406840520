// Seeded violation: shared floating-point accumulator mutated inside a
// parallel region — FP addition is not associative, so the result depends
// on interleaving and thread count.
#include <cstddef>
#include <vector>

namespace fixture {

void parallel_for(std::size_t total, std::size_t grain, int threads,
                  void (*body)(std::size_t, std::size_t));

double mean(const std::vector<double>& xs, int threads) {
  double total = 0.0;
  parallel_for(xs.size(), 1'024, threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) total += xs[i];
  });
  return total / static_cast<double>(xs.size());
}

}  // namespace fixture
