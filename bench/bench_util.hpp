// The one timing helper of the kernel benches (bench_calibration_kernels,
// bench_kernel_scaling). The figure tables need none: bench_figures prints
// deterministic workflow runs, and one run IS the experiment.
#pragma once

#include <chrono>
#include <functional>

namespace xl::bench {

/// Best wall time of `repeats` runs of `body`, in seconds: the least-noise
/// estimate of a real kernel's cost.
inline double min_seconds(const std::function<void()>& body, int repeats) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    // xl-lint: allow(wallclock): kernel benches MEASURE real wall time; the
    // readings are report-only output and never feed a simulated timeline.
    const auto t0 = std::chrono::steady_clock::now();
    body();
    // xl-lint: allow(wallclock): see above — measurement-only.
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace xl::bench
