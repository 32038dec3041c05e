#include "workflow/config_file.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "mesh/layout.hpp"
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

/// The interval a ranged key's value must lie in; an open end excludes its
/// bound.
struct Range {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  std::string describe() const {
    // Every digit a double needs, so a limit such as 1048576 prints exactly.
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    if (std::isinf(hi)) {
      os << (lo_open ? "> " : ">= ") << lo;
    } else {
      os << "in " << (lo_open ? '(' : '[') << lo << ", " << hi << (hi_open ? ')' : ']');
    }
    return os.str();
  }
};

/// `value` parsed whole as a T inside `range`: the one check every ranged
/// key goes through. Errors name the key.
template <typename T>
T ranged(const std::string& value, const std::string& key, const Range& range) {
  const T v = number<T>(value, key);
  if (!range.contains(static_cast<double>(v))) {
    throw ContractError("config: " + key + " must be " + range.describe() + ", got " + value);
  }
  return v;
}

/// Whitespace-separated integers, each parsed whole inside `range`; errors
/// name the key.
std::vector<int> numbers(const std::string& value, const std::string& key,
                         const Range& range) {
  std::istringstream ss(value);
  std::vector<int> out;
  std::string field;
  while (ss >> field) out.push_back(ranged<int>(field, key, range));
  return out;
}

/// Ranks per partition, at most 64x Titan 16K's 16,384: the per-rank vectors
/// of a step are sized by the rank count, and the resource layer doubles the
/// staging partition.
constexpr Range kCores{.lo = 1, .hi = 1 << 20};
/// Flops per cell of a kernel cost, at most 555x the largest default (1,800).
/// With the caps on cores and on finest-level cells, every modeled time
/// stays finite.
constexpr Range kFlopsPerCell{.lo = 0, .hi = 1e6};

/// Level-0 boxes and base tiles one config may ask the synthetic geometry
/// for: 8x what the largest shipped domain needs (Titan 16K, 2048 2048 1024
/// in boxes of 32 and tiles of 8: 131,072 boxes and 8,388,608 tiles). Level 0
/// is cut into boxes and the refinement tags are tile-granular, so the two
/// counts bound what a step allocates.
constexpr std::int64_t kMaxBaseBoxes = std::int64_t{1} << 20;
constexpr std::int64_t kMaxBaseTiles = std::int64_t{1} << 26;

/// Throws, naming `domain` and the limit, unless the domain cut into pieces
/// of `edge` cells (a max_box_size or a tile_size) makes at most `limit` of
/// them. Counted in doubles: an int domain can make more than 2^64 pieces.
void require_domain_pieces(const amr::SyntheticAmrConfig& g, int edge, const char* key,
                           const char* pieces, std::int64_t limit) {
  const mesh::IntVect n = g.base_domain.size();
  double count = 1;
  for (int d = 0; d < mesh::kDim; ++d) count *= std::ceil(static_cast<double>(n[d]) / edge);
  if (count <= static_cast<double>(limit)) return;
  std::ostringstream os;
  os << "config: domain " << n[0] << ' ' << n[1] << ' ' << n[2] << " makes " << std::fixed
     << std::setprecision(0) << count << ' ' << pieces << " of " << key << ' ' << edge
     << "; at most " << limit << " are allowed";
  throw ContractError(os.str());
}

/// Throws, naming domain, ref_ratio, max_levels and the limit, unless the
/// finest level fits the index space the geometry works in: at most
/// mesh::kMortonBias cells along each axis (morton_key keeps 21 bits around
/// that bias) and at most 2^53 cells in all, the largest count a double holds
/// exactly. Counted in doubles, so no power overflows.
void require_finest_level_fits(const amr::SyntheticAmrConfig& g) {
  const mesh::IntVect n = g.base_domain.size();
  const double refine = std::pow(static_cast<double>(g.ref_ratio), g.max_levels - 1);
  double widest = 0;
  double cells = 1;
  for (int d = 0; d < mesh::kDim; ++d) {
    widest = std::max(widest, n[d] * refine);
    cells *= n[d] * refine;
  }
  const auto reject = [&](double value, const char* what, double limit) {
    std::ostringstream os;
    os << "config: domain " << n[0] << ' ' << n[1] << ' ' << n[2] << " with ref_ratio "
       << g.ref_ratio << " and max_levels " << g.max_levels << " makes a finest level of "
       << std::fixed << std::setprecision(0) << value << ' ' << what << "; at most " << limit
       << " are allowed";
    throw ContractError(os.str());
  };
  if (widest > mesh::kMortonBias) reject(widest, "cells along an axis", mesh::kMortonBias);
  constexpr double kMaxExactCells = 9007199254740992.0;  // 2^53
  if (cells > kMaxExactCells) reject(cells, "cells", kMaxExactCells);
}

}  // namespace

WorkflowConfig parse_workflow_config(std::istream& is) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  std::string analysis_ncomp;  // checked against ncomp once every line is read
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ContractError("config line " + std::to_string(line_no) + ": expected key = value");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) throw ContractError("config: empty value for '" + key + "'");

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
      const std::vector<int> n = numbers(value, key, {.lo = 1});
      if (n.size() != 3) throw ContractError("config: domain needs NX NY NZ");
      c.geometry.base_domain = mesh::Box::domain({n[0], n[1], n[2]});
    } else if (key == "factors") {
      std::vector<int> factors = numbers(value, key, {.lo = 1});
      if (!std::is_sorted(factors.begin(), factors.end())) {
        throw ContractError("config: factors must be ascending, got " + value);
      }
      c.hints.factor_phases = {{0, std::move(factors)}};
    } else if (key == "sim_cores") c.sim_cores = ranged<int>(value, key, kCores);
    else if (key == "staging_cores") c.staging_cores = ranged<int>(value, key, kCores);
    else if (key == "threads") c.threads = ranged<int>(value, key, {.lo = 0});
    else if (key == "thread_efficiency")
      c.costs.thread_efficiency = ranged<double>(value, key, {.lo = 0, .hi = 1});
    else if (key == "steps") c.steps = ranged<int>(value, key, {.lo = 1});
    else if (key == "ncomp") c.ncomp = ranged<int>(value, key, {.lo = 1});
    else if (key == "analysis_ncomp") analysis_ncomp = value;
    else if (key == "analysis_interval")
      c.analysis_interval = ranged<int>(value, key, {.lo = 1});
    else if (key == "max_levels") c.geometry.max_levels = ranged<int>(value, key, {.lo = 1});
    else if (key == "ref_ratio") c.geometry.ref_ratio = ranged<int>(value, key, {.lo = 2});
    else if (key == "max_box_size") c.geometry.max_box_size = ranged<int>(value, key, {.lo = 1});
    else if (key == "tile_size") c.geometry.tile_size = ranged<int>(value, key, {.lo = 1});
    else if (key == "front_radius0")
      c.geometry.front_radius0 = ranged<double>(value, key, {.lo = 0});
    else if (key == "front_speed")
      c.geometry.front_speed = ranged<double>(value, key, {.lo = 0});
    else if (key == "front_thickness")
      c.geometry.front_thickness = ranged<double>(value, key, {.lo = 0, .lo_open = true});
    else if (key == "front_decay")
      c.geometry.front_decay = ranged<double>(value, key, {.lo = 0, .hi = 1, .lo_open = true});
    else if (key == "front_decay_onset")
      c.geometry.front_decay_onset = ranged<int>(value, key, {.lo = 0});
    else if (key == "blob_onset_step")
      c.geometry.blob_onset_step = ranged<int>(value, key, {.lo = 0});
    else if (key == "num_blobs") c.geometry.num_blobs = ranged<int>(value, key, {.lo = 0});
    else if (key == "blob_radius")
      c.geometry.blob_radius = ranged<double>(value, key, {.lo = 0});
    else if (key == "seed")
      c.geometry.seed = number<std::uint64_t>(value, key);
    else if (key == "active_cell_fraction")
      c.active_cell_fraction = ranged<double>(value, key, {.lo = 0, .hi = 1});
    else if (key == "staging_usable_fraction")
      c.staging_usable_fraction = ranged<double>(value, key, {.lo = 0, .hi = 1, .lo_open = true});
    else if (key == "sim_euler_flops")
      c.costs.sim_euler_flops_per_cell = ranged<double>(value, key, kFlopsPerCell);
    else if (key == "sim_advect_flops")
      c.costs.sim_advect_flops_per_cell = ranged<double>(value, key, kFlopsPerCell);
    else if (key == "mc_scan_flops")
      c.costs.mc_scan_flops_per_cell = ranged<double>(value, key, kFlopsPerCell);
    else if (key == "mc_active_flops")
      c.costs.mc_active_flops_per_cell = ranged<double>(value, key, kFlopsPerCell);
    else if (key == "euler") c.euler = ranged<int>(value, key, {.lo = 0, .hi = 1}) == 1;
    else if (key == "sampling_period")
      c.monitor.sampling_period = ranged<int>(value, key, {.lo = 1});
    else if (key == "trigger")
      c.monitor.trigger.policy = runtime::parse_trigger_policy(value, "config: 'trigger'");
    else if (key == "trigger_quantile")
      c.monitor.trigger.quantile =
          ranged<double>(value, key, {.lo = 0, .hi = 1, .lo_open = true, .hi_open = true});
    else if (key == "trigger_window")
      c.monitor.trigger.window = ranged<int>(value, key, {.lo = 2});
    else if (key == "trigger_sample_rate")
      c.monitor.trigger.sample_rate =
          ranged<double>(value, key, {.lo = 0, .hi = 1, .lo_open = true});
    else if (key == "trigger_max_interval")
      c.monitor.trigger.max_interval = ranged<int>(value, key, {.lo = 1});
    else if (key == "trigger_seed")
      c.monitor.trigger.seed = number<std::uint64_t>(value, key);
    else if (key == "faults")
      c.faults = runtime::parse_fault_spec(value);
    else if (key == "replication") c.replication = ranged<int>(value, key, {.lo = 1});
    else
      throw ContractError("config: unknown key '" + key + "'");
  }
  if (c.geometry.base_domain.empty()) {
    throw ContractError("config: missing required key 'domain' (NX NY NZ)");
  }
  // After the loop: max_box_size and tile_size may follow the domain.
  require_domain_pieces(c.geometry, c.geometry.max_box_size, "max_box_size", "level-0 boxes",
                        kMaxBaseBoxes);
  require_domain_pieces(c.geometry, c.geometry.tile_size, "tile_size", "tiles", kMaxBaseTiles);
  require_finest_level_fits(c.geometry);
  if (c.replication > c.staging_cores) {
    throw ContractError("config: replication " + std::to_string(c.replication) +
                        " exceeds staging_cores " + std::to_string(c.staging_cores) +
                        "; each copy needs its own server");
  }
  if (!analysis_ncomp.empty()) {
    c.analysis_ncomp = ranged<int>(analysis_ncomp, "analysis_ncomp",
                                   {.lo = 0, .hi = static_cast<double>(c.ncomp)});
  }
  c.memory_model.ncomp = c.ncomp;
  return c;
}

WorkflowConfig parse_workflow_config_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw ContractError("cannot open config file: " + path);
  return parse_workflow_config(is);
}

}  // namespace xl::workflow
