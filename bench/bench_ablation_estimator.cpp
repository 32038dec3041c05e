// Ablation (DESIGN.md §5.3): how much does the quality of the middleware
// policy's execution-time estimator (eq. 7 inputs) matter? Compares the EWMA
// history estimator (default), last-value, and an injected oracle, plus a
// sweep of the EWMA smoothing factor, on the Titan 4K-core experiment.
#include <iostream>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

namespace {

constexpr int kScale = 1;  // 4K cores

WorkflowConfig config_for(runtime::EstimatorKind kind, double alpha) {
  WorkflowConfig c = titan_middleware_experiment(kScale, Mode::AdaptiveMiddleware);
  c.monitor.estimator = kind;
  c.monitor.ewma_alpha = alpha;
  return c;
}

}  // namespace

int main() {
  std::cout << "\n=== Ablation: execution-time estimator for the middleware policy ===\n";
  Table t({"estimator", "overhead (s)", "data moved (GB)", "in-situ", "in-transit"});
  struct Row {
    runtime::EstimatorKind kind;
    double alpha;
    const char* label;
  };
  const Row rows[] = {
      {runtime::EstimatorKind::Oracle, 0.5, "oracle (true costs)"},
      {runtime::EstimatorKind::Ewma, 0.2, "EWMA alpha=0.2"},
      {runtime::EstimatorKind::Ewma, 0.5, "EWMA alpha=0.5 (default)"},
      {runtime::EstimatorKind::Ewma, 0.9, "EWMA alpha=0.9"},
      {runtime::EstimatorKind::LastValue, 0.5, "last value"},
  };
  for (const Row& row : rows) {
    const WorkflowResult r = bench::run(config_for(row.kind, row.alpha)).result;
    t.row()
        .cell(row.label)
        .cell(r.overhead_seconds, 3)
        .cell(static_cast<double>(r.bytes_moved) / 1e9, 1)
        .cell(r.insitu_count)
        .cell(r.intransit_count);
  }
  std::cout << t.to_string()
            << "\nThe policies are tolerant of estimator detail when the workload\n"
               "drifts smoothly (the paper's claim that simple runtime estimation\n"
               "suffices at scale); the oracle row bounds what a perfect predictor\n"
               "could add.\n";
  return 0;
}
