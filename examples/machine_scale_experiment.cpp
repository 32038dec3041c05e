// Machine-scale experiment driver: reproduce one of the paper's §5 runs from
// the command line. Wraps the experiment factories so a user can rerun any
// figure's configuration and inspect the per-step trace.
//
//   ./machine_scale_experiment middleware <scale 0-3> <insitu|intransit|adaptive> [--substrate analytic|des]
//   ./machine_scale_experiment global     <scale 0-3> <local|global> [--substrate analytic|des]
//   ./machine_scale_experiment resource   <static|adaptive> [--substrate analytic|des]
//
// The run executes the shared step pipeline on the discrete-event substrate
// by default (the machine-scale path); --substrate analytic selects the
// closed-form clocks. Both produce identical timelines.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/table.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/experiment.hpp"
#include "workflow/observer.hpp"

using namespace xl;
using namespace xl::workflow;

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  machine_scale_experiment middleware <0-3> <insitu|intransit|adaptive>"
               " [--substrate analytic|des]\n"
            << "  machine_scale_experiment global <0-3> <local|global>"
               " [--substrate analytic|des]\n"
            << "  machine_scale_experiment resource <static|adaptive>"
               " [--substrate analytic|des]\n";
  return 2;
}

void print_result(const WorkflowConfig& config, const WorkflowResult& r,
                  const ExecutionSubstrate& substrate, const EventLog& log) {
  std::cout << "mode " << mode_name(config.mode) << " on " << config.machine.name
            << ": N=" << config.sim_cores << " M=" << config.staging_cores
            << " steps=" << config.steps << " substrate=" << substrate.name()
            << "\n\n";
  Table per_step({"step", "cells", "X", "placement", "M", "sim", "wait", "moved"});
  for (const StepRecord& s : r.steps) {
    per_step.row()
        .cell(s.step)
        .cell(s.total_cells)
        .cell(s.factor)
        .cell(runtime::placement_name(s.placement))
        .cell(s.intransit_cores)
        .cell(format_seconds(s.sim_seconds))
        .cell(format_seconds(s.wait_seconds))
        .cell(format_bytes(static_cast<double>(s.moved_bytes)));
  }
  std::cout << per_step.to_string() << "\n";
  std::cout << "time-to-solution: " << format_seconds(r.end_to_end_seconds)
            << "  (sim " << format_seconds(r.pure_sim_seconds) << " + overhead "
            << format_seconds(r.overhead_seconds) << ")\n"
            << "data moved:       " << format_bytes(static_cast<double>(r.bytes_moved))
            << "\nplacements:       " << r.insitu_count << " in-situ / "
            << r.intransit_count << " in-transit\n"
            << "staging util:     " << format_percent(r.utilization_efficiency)
            << " (eq. 12)\n"
            << "events:           " << log.events().size() << " total, "
            << log.count(EventKind::Decision) << " decisions, "
            << log.count(EventKind::Transfer) << " transfers\n";
}

}  // namespace

int main(int argc, char** argv) {
  // The positional arguments, with `--substrate analytic|des` taken out.
  bool use_des = true;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--substrate") != 0) {
      args.emplace_back(argv[i]);
      continue;
    }
    if (++i == argc) return usage();
    const std::string which = argv[i];
    if (which == "analytic") use_des = false;
    else if (which == "des") use_des = true;
    else return usage();
  }
  if (args.empty()) return usage();
  const std::string& experiment = args[0];

  WorkflowConfig config;
  if (experiment == "middleware" || experiment == "global") {
    if (args.size() != 3) return usage();
    int scale = -1;
    try {
      scale = parse_number<int>(args[1], "scale");
    } catch (const ContractError& e) {
      std::cerr << e.what() << "\n";
    }
    if (scale < 0 || scale > 3) return usage();
    const std::string& variant = args[2];
    if (experiment == "middleware") {
      Mode mode;
      if (variant == "insitu") mode = Mode::StaticInSitu;
      else if (variant == "intransit") mode = Mode::StaticInTransit;
      else if (variant == "adaptive") mode = Mode::AdaptiveMiddleware;
      else return usage();
      config = titan_middleware_experiment(scale, mode);
    } else {
      if (variant == "local") {
        config = titan_global_experiment(scale, Mode::AdaptiveMiddleware);
      } else if (variant == "global") {
        config = titan_global_experiment(scale, Mode::Global);
      } else {
        return usage();
      }
    }
  } else if (experiment == "resource") {
    if (args.size() != 2) return usage();
    const std::string& variant = args[1];
    if (variant == "static") config = intrepid_resource_experiment(Mode::StaticInTransit);
    else if (variant == "adaptive") config = intrepid_resource_experiment(Mode::AdaptiveResource);
    else return usage();
  } else {
    return usage();
  }

  CoupledWorkflow workflow(config);
  EventLog log;
  workflow.set_observer(&log);
  AnalyticSubstrate analytic;
  EventQueueSubstrate des;
  ExecutionSubstrate& substrate =
      use_des ? static_cast<ExecutionSubstrate&>(des) : analytic;
  const WorkflowResult r = workflow.run_on(substrate);
  print_result(config, r, substrate, log);
  return 0;
}
