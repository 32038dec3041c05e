// Shared helpers for the bench binaries.
//
// Each figure/table binary runs every configuration of its figure exactly
// once and prints the reproduced series in the paper's layout. A workflow run
// is deterministic, so one run IS the experiment: there is nothing to repeat
// or time. Every run records the workflow's structured event stream alongside
// the result, so the printers can consume per-step series straight from the
// event log. Only the kernel benches time anything, through min_seconds.
#pragma once

#include <chrono>
#include <functional>
#include <vector>

#include "common/table.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/experiment.hpp"
#include "workflow/observer.hpp"

namespace xl::bench {

/// One workflow execution: the result plus the event stream the run emitted.
struct Run {
  workflow::WorkflowResult result;
  workflow::EventLog events;
};

/// Runs `config` once on the analytic substrate.
inline Run run(const workflow::WorkflowConfig& config) {
  Run out;
  workflow::CoupledWorkflow wf(config);
  wf.set_observer(&out.events);
  out.result = wf.run();
  return out;
}

/// Events of one kind, in emission order.
inline std::vector<const workflow::WorkflowEvent*> events_of_kind(
    const workflow::EventLog& log, workflow::EventKind kind) {
  std::vector<const workflow::WorkflowEvent*> out;
  for (const workflow::WorkflowEvent& e : log.events()) {
    if (e.kind == kind) out.push_back(&e);
  }
  return out;
}

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
