// Fig. 10 reproduction: cumulative end-to-end time of the global (cross-layer)
// adaptation vs local middleware-only adaptation at the four Titan scales,
// with the §5.2.1 user-defined factor phases as application-layer hints.
//
// Paper reference: global adaptation cuts end-to-end overhead by
// 52.16/84.22/97.84/88.87% vs local middleware adaptation.
#include <iostream>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

int main() {
  std::cout << "\n=== Figure 10: end-to-end time, local vs global adaptation ===\n";
  Table t({"cores", "adaptation", "sim time", "overhead", "end-to-end",
           "layers engaged"});
  std::vector<double> local_ovh(4), global_ovh(4);
  for (int scale = 0; scale < 4; ++scale) {
    for (Mode mode : {Mode::AdaptiveMiddleware, Mode::Global}) {
      const bench::Run run = bench::run(titan_global_experiment(scale, mode));
      const WorkflowResult& r = run.result;
      // §5.2.4's "employs all the adaptations at these three layers": count
      // the layers that actually fired, from the Decision events.
      bool app = false, res = false, mw = false;
      for (const WorkflowEvent* e : bench::events_of_kind(run.events, EventKind::Decision)) {
        app = app || e->app_adapted;
        res = res || e->resource_adapted;
        mw = mw || e->middleware_adapted;
      }
      t.row()
          .cell(titan_scales()[static_cast<std::size_t>(scale)].label)
          .cell(mode == Mode::Global ? "global (app+resource+middleware)"
                                     : "local (middleware only)")
          .cell(r.pure_sim_seconds, 2)
          .cell(r.overhead_seconds, 2)
          .cell(r.end_to_end_seconds, 2)
          .cell(int(app) + int(res) + int(mw));
      (mode == Mode::Global ? global_ovh : local_ovh)[static_cast<std::size_t>(scale)] =
          r.overhead_seconds;
    }
  }
  std::cout << t.to_string();

  Table red({"cores", "overhead cut (global vs local)", "paper"});
  const char* paper[] = {"52.16%", "84.22%", "97.84%", "88.87%"};
  for (std::size_t s = 0; s < 4; ++s) {
    red.row()
        .cell(titan_scales()[s].label)
        .cell(format_percent(1.0 - global_ovh[s] / local_ovh[s]))
        .cell(paper[s]);
  }
  std::cout << "\n" << red.to_string();
  return 0;
}
