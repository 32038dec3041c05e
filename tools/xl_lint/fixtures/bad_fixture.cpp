// Seeded-bad fixture: every rule marked below fires at least once. Never
// compiled; the xl_lint.fixture.<rule>_fires tests run the linter over it and
// require each rule id in the output, proving the gate bites. The directory
// name "fixtures" is excluded from normal tree walks.
//
// This file intentionally lives at a path matching none of the per-directory
// scopes; the unordered-iter rule fires from src/runtime/bad_unordered.cpp,
// row-loop from src/analysis/bad_row_loop.cpp.
#include <chrono>
#include <cstdlib>
#include <random>
#include <vector>

double wallclock_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();  // wallclock
}

int unseeded_draw() {
  std::random_device dev;  // raw-random
  return static_cast<int>(dev() % 7u + rand() % 3u);
}

std::size_t truncate(double seconds) {
  return static_cast<std::size_t>(seconds * 1.5);  // float-cast
}

void merge_race(std::vector<int>& shared) {
  void parallel_for(std::size_t, std::size_t, int);  // decoy declaration
  extern void parallel_for(std::size_t begin, std::size_t end, void (*)(std::size_t));
  parallel_for(0, 8, [&shared](std::size_t i) {
    shared.push_back(static_cast<int>(i));  // parallel-merge
  });
}

double no_limits_include() {
  return std::numeric_limits<double>::max();  // missing-include
}

const char* host_escape() {
  return std::getenv("XL_THREADS");  // banned-symbol
}

struct Fab {};

std::size_t payload_copy(Fab payload) {  // fab-by-value
  (void)payload;
  return 0;
}
