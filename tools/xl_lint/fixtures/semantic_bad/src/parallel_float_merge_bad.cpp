// Seeded-bad fixture for parallel-merge's float check: a parallel_for body
// accumulating into a float declared outside the lambda, so the sum depends
// on nondeterministic chunk interleaving.
#include <cstddef>
#include <vector>

namespace fixture {

double unstable_sum(const std::vector<double>& xs) {
  double sum = 0.0;
  parallel_for(xs.size(), [&](std::size_t i) {
    sum += xs[i];
  });
  return sum;
}

}  // namespace fixture
