// Trace export: per-step records and the structured observer event stream of
// a workflow run as CSV (ready for gnuplot/pandas), plus a compact run
// summary. Used by the examples/CLI and handy for regenerating the paper's
// plots outside this repo.
#pragma once

#include <iosfwd>
#include <string>

#include "workflow/coupled_workflow.hpp"
#include "workflow/observer.hpp"

namespace xl::workflow {

/// One CSV row per step: step, cells, placement, factor, cores, timings,
/// bytes. Header row included.
void write_steps_csv(std::ostream& os, const WorkflowResult& result);
void write_steps_csv(const std::string& path, const WorkflowResult& result);

/// One CSV row per WorkflowEvent, in emission order: kind, step, the two
/// partition clocks at emission, and the kind-specific payload columns.
/// Header row included.
void write_events_csv(std::ostream& os, const EventLog& log);
void write_events_csv(const std::string& path, const EventLog& log);

// Every writer throws ContractError when the output fails. A path overload
// writes through xl::write_file, so it closes the file before it checks and
// its errors name the path.

/// Single-line key=value summary (end-to-end, overhead, movement, counts).
std::string summarize(const WorkflowResult& result);

}  // namespace xl::workflow
