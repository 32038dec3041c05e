// Fig. 9 + §5.2.3 reproduction: the resource-layer adaptation on the
// memory-intensive 3-D Polytropic Gas workload (Intrepid model, 4K simulation
// cores, 256 preallocated staging cores). Prints the per-step in-transit core
// allocation (static vs adaptive) and the eq. 12 CPU utilization efficiency.
//
// Paper reference: ~50 cores needed at the start, growing with refinement;
// utilization efficiency 87.11% adaptive vs 54.57% static.
#include <iostream>
#include <map>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

int main() {
  const bench::Run fixed_run = bench::run(intrepid_resource_experiment(Mode::StaticInTransit));
  const bench::Run adaptive_run =
      bench::run(intrepid_resource_experiment(Mode::AdaptiveResource));
  const WorkflowResult& fixed = fixed_run.result;
  const WorkflowResult& adaptive = adaptive_run.result;

  // The per-step series comes from the observer event stream: StepEnd
  // carries the final M and analyzed cells, StepBegin the T_sim, and the
  // in-transit Analysis events the staging-side service time.
  const auto fixed_steps = bench::events_of_kind(fixed_run.events, EventKind::StepEnd);
  const auto adaptive_steps = bench::events_of_kind(adaptive_run.events, EventKind::StepEnd);
  const auto adaptive_begins =
      bench::events_of_kind(adaptive_run.events, EventKind::StepBegin);
  std::map<int, double> intransit_seconds;
  for (const WorkflowEvent* e : bench::events_of_kind(adaptive_run.events, EventKind::Analysis)) {
    if (e->placement == runtime::Placement::InTransit) {
      intransit_seconds[e->step] = e->seconds;
    }
  }

  std::cout << "\n=== Figure 9: in-transit cores per time step ===\n";
  Table t({"step", "static M", "adaptive M", "analyzed cells", "T_intransit (s)",
           "T_sim (s)"});
  for (std::size_t i = 0; i < adaptive_steps.size(); ++i) {
    const WorkflowEvent& e = *adaptive_steps[i];
    const auto it = intransit_seconds.find(e.step);
    t.row()
        .cell(e.step)
        .cell(fixed_steps[i]->intransit_cores)
        .cell(e.intransit_cores)
        .cell(e.cells)
        .cell(it != intransit_seconds.end() ? it->second : 0.0, 3)
        .cell(adaptive_begins[i]->seconds, 3);
  }
  std::cout << t.to_string();

  std::cout << "\n=== Section 5.2.3: CPU utilization efficiency (eq. 12) ===\n";
  Table u({"allocation", "utilization", "paper"});
  u.row().cell("static (256 cores)").cell(format_percent(fixed.utilization_efficiency))
      .cell("54.57%");
  u.row().cell("adaptive").cell(format_percent(adaptive.utilization_efficiency))
      .cell("87.11%");
  std::cout << u.to_string();
  std::cout << "\nsame time-to-solution check: static "
            << format_seconds(fixed.end_to_end_seconds) << " vs adaptive "
            << format_seconds(adaptive.end_to_end_seconds) << "\n";
  return 0;
}
