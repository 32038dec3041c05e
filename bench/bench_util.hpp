// Shared helpers for the figure/table bench binaries.
//
// Each binary runs every configuration of its figure exactly once and prints
// the reproduced series in the paper's layout. A workflow run is
// deterministic, so one run IS the experiment: there is nothing to repeat or
// time. Every run records the workflow's structured event stream alongside
// the result, so the printers can consume per-step series straight from the
// observer events.
#pragma once

#include <vector>

#include "common/table.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/experiment.hpp"
#include "workflow/observer.hpp"

namespace xl::bench {

/// One workflow execution: the result plus the observer event stream the
/// run emitted.
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

}  // namespace xl::bench
