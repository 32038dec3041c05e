// Table 2 reproduction: during the global (cross-layer) runs, how many time
// steps actually used 100% / 75% / 50% / <50% of the preallocated in-transit
// cores while performing in-transit analysis.
//
// Paper reference (sim:staging, total steps, steps per bucket):
//   2K:128   27 | 25  2  -  -
//   4K:256   42 |  8 13  4 17
//   8K:512   49 |  4 23 22  -
//   16K:1024 41 | 10 12 10  9
// Our application-layer reduction is more aggressive than the paper's
// effective reduction, so our allocations skew further below the pool
// (EXPERIMENTS.md); the qualitative claim — the global adaptation frees
// preallocated staging cores — is what this table checks.
#include <iostream>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

int main() {
  std::cout << "\n=== Table 2: actual in-transit core utilization (global adaptation) ===\n";
  Table t({"sim:staging", "total steps", "in-transit steps", "100% cores", "75% cores",
           "50% cores", "<50% cores", "mean M / pool"});
  for (int scale = 0; scale < 4; ++scale) {
    // Copy: titan_scales() returns a fresh vector, references would dangle.
    const TitanScale ts = titan_scales()[static_cast<std::size_t>(scale)];
    const WorkflowResult r = bench::run(titan_global_experiment(scale, Mode::Global)).result;
    int b100 = 0, b75 = 0, b50 = 0, blt = 0, intransit = 0;
    double m_sum = 0.0;
    for (const StepRecord& s : r.steps) {
      if (s.placement != runtime::Placement::InTransit) continue;
      ++intransit;
      m_sum += s.intransit_cores;
      const double f = static_cast<double>(s.intransit_cores) / ts.staging_cores;
      if (f >= 0.995) ++b100;
      else if (f >= 0.75) ++b75;
      else if (f >= 0.5) ++b50;
      else ++blt;
    }
    t.row()
        .cell(std::to_string(ts.sim_cores / 1024) + "K:" + std::to_string(ts.staging_cores))
        .cell(r.steps.size())
        .cell(intransit)
        .cell(b100)
        .cell(b75)
        .cell(b50)
        .cell(blt)
        .cell(format_percent(m_sum / intransit / ts.staging_cores));
  }
  std::cout << t.to_string();
  return 0;
}
