// Fig. 7 reproduction: cumulative end-to-end execution time of the AMR
// Advection-Diffusion + visualization workflow under static in-situ, static
// in-transit, and adaptive middleware placement, at 2K/4K/8K/16K simulation
// cores on the Titan model (16:1 staging ratio).
//
// Paper reference values: adaptive cuts end-to-end overhead by
// 50.00/50.31/50.50/56.30% vs static in-situ and 75.42/38.78/21.29/48.22%
// vs static in-transit; adaptive overhead stays below 6% of simulation time.
#include <iostream>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

int main() {
  std::cout << "\n=== Figure 7: cumulative end-to-end execution time (seconds) ===\n";
  Table t({"cores", "placement", "sim time", "overhead", "end-to-end",
           "ovh % of sim", "in-situ", "in-transit", "transfers"});
  std::vector<double> adaptive_ovh(4), insitu_ovh(4), intransit_ovh(4);
  for (int scale = 0; scale < 4; ++scale) {
    for (Mode mode : {Mode::StaticInSitu, Mode::StaticInTransit, Mode::AdaptiveMiddleware}) {
      const bench::Run run = bench::run(titan_middleware_experiment(scale, mode));
      const WorkflowResult& r = run.result;
      // Placement counts come from the observer event stream: one StepEnd
      // per step carries the final placement.
      int insitu = 0, intransit = 0;
      for (const WorkflowEvent* e : bench::events_of_kind(run.events, EventKind::StepEnd)) {
        if (e->skipped) continue;
        (e->placement == runtime::Placement::InSitu ? insitu : intransit)++;
      }
      t.row()
          .cell(titan_scales()[static_cast<std::size_t>(scale)].label)
          .cell(mode_name(mode))
          .cell(r.pure_sim_seconds, 2)
          .cell(r.overhead_seconds, 2)
          .cell(r.end_to_end_seconds, 2)
          .cell(format_percent(r.overhead_seconds / r.pure_sim_seconds))
          .cell(insitu)
          .cell(intransit)
          .cell(run.events.count(EventKind::Transfer));
      const auto s = static_cast<std::size_t>(scale);
      if (mode == Mode::StaticInSitu) insitu_ovh[s] = r.overhead_seconds;
      if (mode == Mode::StaticInTransit) intransit_ovh[s] = r.overhead_seconds;
      if (mode == Mode::AdaptiveMiddleware) adaptive_ovh[s] = r.overhead_seconds;
    }
  }
  std::cout << t.to_string();

  Table red({"cores", "overhead cut vs in-situ", "paper", "overhead cut vs in-transit",
             "paper"});
  const char* paper_is[] = {"50.00%", "50.31%", "50.50%", "56.30%"};
  const char* paper_it[] = {"75.42%", "38.78%", "21.29%", "48.22%"};
  for (std::size_t s = 0; s < 4; ++s) {
    red.row()
        .cell(titan_scales()[s].label)
        .cell(format_percent(1.0 - adaptive_ovh[s] / insitu_ovh[s]))
        .cell(paper_is[s])
        .cell(format_percent(1.0 - adaptive_ovh[s] / intransit_ovh[s]))
        .cell(paper_it[s]);
  }
  std::cout << "\n" << red.to_string();
  return 0;
}
