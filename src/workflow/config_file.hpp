// Plain-text configuration for the CLI runner: `key = value` lines, `#`
// comments. Covers the experiment knobs a downstream user sweeps without
// recompiling (machine, scales, mode, costs, geometry, adaptation settings).
#pragma once

#include <iosfwd>
#include <string>

#include "workflow/coupled_workflow.hpp"

namespace xl::workflow {

/// Parse a config stream into a WorkflowConfig, starting from the defaults.
/// Unknown keys throw ContractError (catching typos beats ignoring them), as
/// do values outside a key's range; every error names the key.
///
/// Recognized keys:
///   machine = titan | intrepid | test
///   mode = insitu | intransit | hybrid | adaptive | resource | global
///   analysis = isosurface | statistics | subsetting
///   sim_cores, staging_cores, steps, ncomp = <int >= 1>
///   analysis_ncomp = <int>         (0 = ncomp; at most ncomp)
///   analysis_interval = <int>      (>= 1: analyze every N-th step)
///   threads = <int>                (per-rank analysis threads, 0 = serial)
///   thread_efficiency = <float>    (threading-speedup exponent in [0, 1])
///   domain = NX NY NZ              (required)
///   max_levels, max_box_size, tile_size = <int >= 1>, ref_ratio = <int >= 2>
///                                  (domain * ref_ratio^(max_levels-1) at most
///                                   2^20 per axis and 2^53 cells in all)
///   front_radius0, front_speed = <float >= 0>
///   front_thickness = <float > 0>, front_decay = <float in (0, 1]>
///   front_decay_onset, blob_onset_step, num_blobs = <int >= 0>
///   blob_radius = <float >= 0>
///   seed = <uint>
///   active_cell_fraction = <float in [0, 1]>
///   staging_usable_fraction = <float in (0, 1]>
///   sim_euler_flops, sim_advect_flops, mc_scan_flops, mc_active_flops = <float >= 0>
///   euler = 0|1
///   factors = X1 X2 ...            (single hint phase, ascending)
///   objective = time | movement | utilization
///   sampling_period = <int >= 1>
///   trigger = fixed | percentile | hybrid
///   trigger_quantile = <float in (0, 1)>, trigger_sample_rate = <float in (0, 1]>
///   trigger_window = <int >= 2>, trigger_max_interval = <int >= 1>
///   trigger_seed = <uint>
///   faults = <spec>                (runtime::parse_fault_spec; lease=N sets the
///                                   heartbeat lease)
///   replication = <int >= 1>       (staged-object copies, at most staging_cores)
WorkflowConfig parse_workflow_config(std::istream& is);
WorkflowConfig parse_workflow_config_file(const std::string& path);

}  // namespace xl::workflow
