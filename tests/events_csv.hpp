// The events CSV of one workflow run, the bytes the substrate-identity and
// rerun-identity tests compare.
#pragma once

#include <sstream>
#include <string>

#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/observer.hpp"
#include "workflow/trace_io.hpp"

namespace xl::test {

/// Run `config` on `substrate` and return its events CSV; the run's result
/// goes to `out` when given.
inline std::string events_csv(const workflow::WorkflowConfig& config,
                              workflow::ExecutionSubstrate& substrate,
                              workflow::WorkflowResult* out = nullptr) {
  workflow::CoupledWorkflow wf(config);
  workflow::EventLog log;
  wf.set_observer(&log);
  const workflow::WorkflowResult result = wf.run_on(substrate);
  if (out != nullptr) *out = result;
  std::ostringstream os;
  workflow::write_events_csv(os, log);
  return os.str();
}

}  // namespace xl::test
