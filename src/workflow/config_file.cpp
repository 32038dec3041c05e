#include "workflow/config_file.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <sstream>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "runtime/trigger.hpp"

namespace xl::workflow {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/// `value` parsed whole as a T; errors name the key.
template <typename T>
T number(const std::string& value, const std::string& key) {
  return parse_number<T>(value, "config: '" + key + "'");
}

/// Whitespace-separated integers, each parsed whole; errors name the key.
std::vector<int> numbers(const std::string& value, const std::string& key) {
  std::istringstream ss(value);
  std::vector<int> out;
  std::string field;
  while (ss >> field) out.push_back(number<int>(field, key));
  return out;
}

}  // namespace

WorkflowConfig parse_workflow_config(std::istream& is) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    XL_REQUIRE(eq != std::string::npos,
               "config line " + std::to_string(line_no) + ": expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    XL_REQUIRE(!value.empty(), "config: empty value for '" + key + "'");

    if (key == "machine") {
      if (value == "titan") c.machine = cluster::titan();
      else if (value == "intrepid") c.machine = cluster::intrepid();
      else if (value == "test") c.machine = cluster::test_machine();
      else throw ContractError("config: unknown machine '" + value + "'");
    } else if (key == "mode") {
      if (value == "insitu") c.mode = Mode::StaticInSitu;
      else if (value == "intransit") c.mode = Mode::StaticInTransit;
      else if (value == "hybrid") c.mode = Mode::StaticHybrid;
      else if (value == "adaptive") c.mode = Mode::AdaptiveMiddleware;
      else if (value == "resource") c.mode = Mode::AdaptiveResource;
      else if (value == "global") c.mode = Mode::Global;
      else throw ContractError("config: unknown mode '" + value + "'");
    } else if (key == "analysis") {
      if (value == "isosurface") c.analysis_kind = AnalysisKind::Isosurface;
      else if (value == "statistics") c.analysis_kind = AnalysisKind::Statistics;
      else if (value == "subsetting") c.analysis_kind = AnalysisKind::Subsetting;
      else throw ContractError("config: unknown analysis '" + value + "'");
    } else if (key == "objective") {
      if (value == "time") c.objective = runtime::Objective::MinimizeTimeToSolution;
      else if (value == "movement") c.objective = runtime::Objective::MinimizeDataMovement;
      else if (value == "utilization")
        c.objective = runtime::Objective::MaximizeResourceUtilization;
      else throw ContractError("config: unknown objective '" + value + "'");
    } else if (key == "domain") {
      const std::vector<int> n = numbers(value, key);
      XL_REQUIRE(n.size() == 3 && n[0] > 0 && n[1] > 0 && n[2] > 0,
                 "config: domain needs NX NY NZ");
      c.geometry.base_domain = mesh::Box::domain({n[0], n[1], n[2]});
    } else if (key == "factors") {
      const std::vector<int> factors = numbers(value, key);
      XL_REQUIRE(*std::min_element(factors.begin(), factors.end()) >= 1,
                 "config: factors must be >= 1");
      c.hints.factor_phases = {{0, factors}};
    } else if (key == "sim_cores") c.sim_cores = number<int>(value, key);
    else if (key == "staging_cores") c.staging_cores = number<int>(value, key);
    else if (key == "threads") {
      c.threads = number<int>(value, key);
      XL_REQUIRE(c.threads >= 0, "config: threads must be >= 0");
    } else if (key == "thread_efficiency")
      c.costs.thread_efficiency = number<double>(value, key);
    else if (key == "steps") c.steps = number<int>(value, key);
    else if (key == "ncomp") c.ncomp = number<int>(value, key);
    else if (key == "analysis_ncomp") c.analysis_ncomp = number<int>(value, key);
    else if (key == "analysis_interval") c.analysis_interval = number<int>(value, key);
    else if (key == "max_levels") c.geometry.max_levels = number<int>(value, key);
    else if (key == "ref_ratio") c.geometry.ref_ratio = number<int>(value, key);
    else if (key == "max_box_size") c.geometry.max_box_size = number<int>(value, key);
    else if (key == "tile_size") c.geometry.tile_size = number<int>(value, key);
    else if (key == "front_radius0") c.geometry.front_radius0 = number<double>(value, key);
    else if (key == "front_speed") c.geometry.front_speed = number<double>(value, key);
    else if (key == "front_thickness") c.geometry.front_thickness = number<double>(value, key);
    else if (key == "front_decay") c.geometry.front_decay = number<double>(value, key);
    else if (key == "front_decay_onset") c.geometry.front_decay_onset = number<int>(value, key);
    else if (key == "blob_onset_step") c.geometry.blob_onset_step = number<int>(value, key);
    else if (key == "num_blobs") c.geometry.num_blobs = number<int>(value, key);
    else if (key == "blob_radius") c.geometry.blob_radius = number<double>(value, key);
    else if (key == "seed")
      c.geometry.seed = number<std::uint64_t>(value, key);
    else if (key == "active_cell_fraction") {
      c.active_cell_fraction = number<double>(value, key);
      XL_REQUIRE(c.active_cell_fraction >= 0.0 && c.active_cell_fraction <= 1.0,
                 "config: active_cell_fraction must be in [0, 1], got " + value);
    } else if (key == "staging_usable_fraction")
      c.staging_usable_fraction = number<double>(value, key);
    else if (key == "sim_euler_flops")
      c.costs.sim_euler_flops_per_cell = number<double>(value, key);
    else if (key == "sim_advect_flops")
      c.costs.sim_advect_flops_per_cell = number<double>(value, key);
    else if (key == "mc_scan_flops")
      c.costs.mc_scan_flops_per_cell = number<double>(value, key);
    else if (key == "mc_active_flops")
      c.costs.mc_active_flops_per_cell = number<double>(value, key);
    else if (key == "euler") {
      const int euler = number<int>(value, key);
      XL_REQUIRE(euler == 0 || euler == 1, "config: euler must be 0 or 1, got " + value);
      c.euler = euler == 1;
    } else if (key == "sampling_period") {
      c.monitor.sampling_period = number<int>(value, key);
      XL_REQUIRE(c.monitor.sampling_period >= 1,
                 "config: sampling_period must be >= 1, got " + value);
    } else if (key == "trigger") {
      c.monitor.trigger.policy = runtime::parse_trigger_policy(value, "config: 'trigger'");
    } else if (key == "trigger_quantile") {
      c.monitor.trigger.quantile = number<double>(value, key);
      XL_REQUIRE(c.monitor.trigger.quantile > 0.0 && c.monitor.trigger.quantile < 1.0,
                 "config: trigger_quantile must be in (0, 1), got " + value);
    } else if (key == "trigger_window") {
      c.monitor.trigger.window = number<int>(value, key);
      XL_REQUIRE(c.monitor.trigger.window >= 2,
                 "config: trigger_window must be >= 2, got " + value);
    } else if (key == "trigger_sample_rate") {
      c.monitor.trigger.sample_rate = number<double>(value, key);
      XL_REQUIRE(c.monitor.trigger.sample_rate > 0.0 &&
                     c.monitor.trigger.sample_rate <= 1.0,
                 "config: trigger_sample_rate must be in (0, 1], got " + value);
    } else if (key == "trigger_max_interval") {
      c.monitor.trigger.max_interval = number<int>(value, key);
      XL_REQUIRE(c.monitor.trigger.max_interval >= 1,
                 "config: trigger_max_interval must be >= 1, got " + value);
    } else if (key == "trigger_seed")
      c.monitor.trigger.seed = number<std::uint64_t>(value, key);
    else if (key == "faults")
      c.faults = runtime::parse_fault_spec(value);
    else if (key == "replication") {
      c.replication = number<int>(value, key);
      XL_REQUIRE(c.replication >= 1, "config: replication must be >= 1");
    } else if (key == "lease_steps") {
      // Heartbeat lease window in steps; also settable inside the faults
      // spec as `lease=N`. Keep this key after `faults` in config files —
      // parsing a faults spec resets the whole FaultConfig.
      c.faults.lease_steps = number<int>(value, key);
      XL_REQUIRE(c.faults.lease_steps >= 0, "config: lease_steps must be >= 0");
    } else
      throw ContractError("config: unknown key '" + key + "'");
  }
  XL_REQUIRE(!c.geometry.base_domain.empty(),
             "config: missing required key 'domain' (NX NY NZ)");
  c.memory_model.ncomp = c.ncomp;
  return c;
}

WorkflowConfig parse_workflow_config_file(const std::string& path) {
  std::ifstream is(path);
  XL_REQUIRE(is.good(), "cannot open config file: " + path);
  return parse_workflow_config(is);
}

}  // namespace xl::workflow
