// xlayer CLI: run any coupled-workflow configuration from a plain-text
// config file and emit the per-step trace as CSV — the entry point a
// downstream user sweeps parameters with, no recompilation needed.
//
//   xlayer_cli run <config-file> [--csv <out.csv>] [--events <out.csv>]
//              [--faults <spec>] [--threads <N>] [--quiet]
//   xlayer_cli print-config                 # print a starting-point config
//
// Example config:
//   machine = titan
//   mode = global
//   sim_cores = 2048
//   staging_cores = 128
//   domain = 1024 1024 512
//   steps = 50
//   factors = 2 4
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/contract.hpp"
#include "common/table.hpp"
#include "runtime/trigger.hpp"
#include "workflow/config_file.hpp"
#include "workflow/energy.hpp"
#include "workflow/trace_io.hpp"

using namespace xl;
using namespace xl::workflow;

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  xlayer_cli run <config-file> [--csv <out.csv>]"
               " [--events <out.csv>] [--faults <spec>] [--threads <N>]"
               " [--replication <K>] [--trigger <policy>] [--quiet]\n"
            << "  xlayer_cli print-config\n"
            << "--threads N: modeled per-rank analysis threads (0 = serial;"
               " overrides the config's `threads` key)\n"
            << "--replication K: staged-object copies (1 = unreplicated;"
               " overrides the config's `replication` key)\n"
            << "--trigger P: sampling-step policy, fixed | percentile | hybrid"
               " (overrides the config's `trigger` key)\n"
            << "fault spec clauses (';'-separated):\n"
            << "  seed=N drop=RATE corrupt=RATE retries=N backoff=SECONDS\n"
            << "  backoff_mult=X timeout=SECONDS lease=STEPS\n"
            << "  crash=STEP[:SERVERS[:DURATION]] straggler=STEP[:SLOW[:DURATION]]\n";
  return 2;
}

/// The integer value of `flag`, at least `min`; errors name the flag.
int flag_int(const char* text, const char* flag, int min) {
  const int value = parse_number<int>(text, flag);
  if (value < min) {
    throw ContractError(std::string(flag) + " needs an integer >= " + std::to_string(min));
  }
  return value;
}

void print_starting_config() {
  std::cout << "# xlayer workflow configuration: a Titan 2K-core starting point close\n"
               "# to the Fig. 7 setup, not the parser defaults. A key left out takes\n"
               "# its default; domain is required.\n"
               "machine = titan            # titan | intrepid | test\n"
               "mode = adaptive            # insitu | intransit | hybrid | adaptive | resource | global\n"
               "analysis = isosurface      # isosurface | statistics | subsetting\n"
               "objective = time           # time | movement | utilization\n"
               "sim_cores = 2048\n"
               "staging_cores = 128\n"
               "threads = 0                # per-rank analysis worker threads (0 = serial)\n"
               "steps = 50\n"
               "ncomp = 1\n"
               "domain = 1024 1024 512\n"
               "max_levels = 3\n"
               "ref_ratio = 2\n"
               "front_radius0 = 0.10\n"
               "front_speed = 0.004\n"
               "front_thickness = 0.015\n"
               "front_decay = 0.85\n"
               "front_decay_onset = 35\n"
               "active_cell_fraction = 0.03\n"
               "staging_usable_fraction = 0.06\n"
               "factors = 2 4\n"
               "sampling_period = 1\n"
               "trigger = fixed            # fixed | percentile | hybrid (data-driven sampling steps)\n"
               "trigger_quantile = 0.9     # trailing quantile the indicator must exceed to fire\n"
               "trigger_window = 16        # trailing window of sampled indicators\n"
               "trigger_sample_rate = 1.0  # probability a step's indicator enters the window\n"
               "trigger_max_interval = 8   # hybrid only: force a fire after this many quiet steps\n"
               "trigger_seed = 1914161381  # seed of the percentile-sampling draws\n"
               "replication = 1            # staged-object copies (k-way durability)\n"
               "# faults = drop=0.05;retries=3;crash=10:64:5;lease=2   # fault injection (off by default)\n"
               "#   lease=N: heartbeat lease window in steps (0 = oracle-instant detection)\n";
}

int run(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string config_path = argv[2];
  std::string csv_path;
  std::string events_path;
  std::string fault_spec;
  std::string trigger_policy;
  int threads = -1;      // -1 = not given on the command line
  int replication = -1;  // -1 = not given on the command line
  bool quiet = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events_path = argv[++i];
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = flag_int(argv[++i], "--threads", 0);
    } else if (std::strcmp(argv[i], "--replication") == 0 && i + 1 < argc) {
      replication = flag_int(argv[++i], "--replication", 1);
    } else if (std::strcmp(argv[i], "--trigger") == 0 && i + 1 < argc) {
      trigger_policy = argv[++i];
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      return usage();
    }
  }

  WorkflowConfig config = parse_workflow_config_file(config_path);
  if (!fault_spec.empty()) config.faults = runtime::parse_fault_spec(fault_spec);
  if (threads >= 0) config.threads = threads;
  if (replication >= 1) {
    if (replication > config.staging_cores) {
      throw ContractError("--replication " + std::to_string(replication) +
                          " exceeds the config's staging_cores " +
                          std::to_string(config.staging_cores));
    }
    config.replication = replication;
  }
  if (!trigger_policy.empty()) {
    config.monitor.trigger.policy = runtime::parse_trigger_policy(trigger_policy, "--trigger");
  }
  CoupledWorkflow workflow(config);
  EventLog log;
  if (!events_path.empty()) workflow.set_observer(&log);
  const WorkflowResult result = workflow.run();

  if (!csv_path.empty()) write_steps_csv(csv_path, result);
  if (!events_path.empty()) write_events_csv(events_path, log);

  if (!quiet) {
    Table t({"metric", "value"});
    t.row().cell("machine").cell(config.machine.name);
    t.row().cell("mode").cell(mode_name(config.mode));
    t.row().cell("analysis").cell(analysis_kind_name(config.analysis_kind));
    if (config.threads > 1) {
      t.row().cell("analysis threads").cell(std::to_string(config.threads));
    }
    t.row().cell("time-to-solution").cell(format_seconds(result.end_to_end_seconds));
    t.row().cell("simulation time").cell(format_seconds(result.pure_sim_seconds));
    t.row().cell("overhead").cell(format_seconds(result.overhead_seconds));
    t.row().cell("data moved").cell(format_bytes(static_cast<double>(result.bytes_moved)));
    t.row().cell("in-situ / in-transit / skipped")
        .cell(std::to_string(result.insitu_count) + " / " +
              std::to_string(result.intransit_count) + " / " +
              std::to_string(result.skipped_count));
    t.row().cell("staging utilization (eq. 12)")
        .cell(format_percent(result.utilization_efficiency));
    if (config.monitor.trigger.policy != runtime::TriggerPolicy::FixedPeriod) {
      t.row().cell("trigger policy")
          .cell(runtime::trigger_policy_name(config.monitor.trigger.policy));
      t.row().cell("triggers fired / suppressed")
          .cell(std::to_string(result.triggers_fired) + " / " +
                std::to_string(result.steps_suppressed));
    }
    if (config.faults.enabled()) {
      t.row().cell("faults / recoveries")
          .cell(std::to_string(result.faults_injected) + " / " +
                std::to_string(result.recoveries));
      t.row().cell("transfer retries / failures")
          .cell(std::to_string(result.transfer_retries) + " / " +
                std::to_string(result.transfer_failures));
      t.row().cell("degraded in-situ steps")
          .cell(std::to_string(result.degraded_insitu_count));
      t.row().cell("staged bytes dropped")
          .cell(format_bytes(static_cast<double>(result.dropped_bytes)));
      if (config.replication > 1 || config.faults.lease_steps > 0) {
        t.row().cell("suspicions / repairs / read-repairs")
            .cell(std::to_string(result.server_suspicions) + " / " +
                  std::to_string(result.repairs_scheduled) + " / " +
                  std::to_string(result.read_repairs));
        t.row().cell("replica copy traffic")
            .cell(format_bytes(static_cast<double>(result.replicated_bytes +
                                                   result.repair_bytes)));
      }
    }
    const EnergyReport energy = estimate_energy(result, config.sim_cores);
    t.row().cell("energy (MJ)").cell(energy.total_joules() / 1e6, 3);
    std::cout << t.to_string();
    if (!csv_path.empty()) std::cout << "per-step trace -> " << csv_path << "\n";
    if (!events_path.empty()) std::cout << "event stream -> " << events_path << "\n";
  } else {
    std::cout << summarize(result) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "run") return run(argc, argv);
    if (command == "print-config" && argc == 2) {
      print_starting_config();
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
