// Plain-text configuration for the CLI runner: `key = value` lines, `#`
// comments. Covers the experiment knobs a downstream user sweeps without
// recompiling (machine, scales, mode, costs, geometry, adaptation settings).
#pragma once

#include <iosfwd>
#include <string>

#include "workflow/coupled_workflow.hpp"

namespace xl::workflow {

/// Parse a config stream into a WorkflowConfig, starting from the defaults.
/// Unknown keys throw ContractError (catching typos beats ignoring them).
///
/// Recognized keys:
///   machine = titan | intrepid | test
///   mode = insitu | intransit | hybrid | adaptive | resource | global
///   analysis = isosurface | statistics | subsetting
///   sim_cores, staging_cores, steps, ncomp, analysis_ncomp,
///   analysis_interval = <int>
///   threads = <int>                (per-rank analysis threads, 0 = serial)
///   thread_efficiency = <float>    (threading-speedup exponent, see KernelCosts)
///   domain = NX NY NZ              (required)
///   max_levels, ref_ratio, max_box_size, tile_size = <int>
///   front_radius0, front_speed, front_thickness, front_decay = <float>
///   front_decay_onset, blob_onset_step, num_blobs = <int>
///   blob_radius = <float>
///   seed = <uint>
///   active_cell_fraction, staging_usable_fraction = <float>
///   sim_euler_flops, sim_advect_flops, mc_scan_flops, mc_active_flops = <float>
///   euler = 0|1
///   factors = X1 X2 ...            (single hint phase)
///   objective = time | movement | utilization
///   sampling_period = <int>
WorkflowConfig parse_workflow_config(std::istream& is);
WorkflowConfig parse_workflow_config_file(const std::string& path);

}  // namespace xl::workflow
