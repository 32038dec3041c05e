// Fault sweep: end-to-end resilience of the adaptive workflow under
// deterministic fault injection. Two sweeps on the Titan 2K-core
// Advection-Diffusion setup (adaptive middleware placement):
//
//  (a) transfer-fault rate 0..20%: every staged buffer runs the retry/backoff
//      ladder; exhausted transfers fall back in-situ. Reported: end-to-end
//      slowdown vs the fault-free run, retries, failures, and the fraction of
//      analyses that were degraded to the simulation partition.
//  (b) staging-server crash at step 10 (half the partition, then the whole
//      partition, for varying outage lengths): recovery must re-admit
//      in-transit work and no step may lose its analysis.
//
// No paper figure corresponds to this bench: the paper assumes an always-up
// staging area. This is the robustness envelope around its §5 experiments.
//
// --replication N  replication factor of every run (default 1, the
//                  unreplicated sweeps); k > 1 re-runs them against the
//                  durable space.
#include <cstring>
#include <iostream>
#include <optional>

#include "bench_util.hpp"
#include "common/contract.hpp"

using namespace xl;
using namespace xl::workflow;

namespace {

const double kDropRates[] = {0.0, 0.02, 0.05, 0.10, 0.20};

struct CrashCase {
  const char* label;
  int servers;   // 0 = no crash
  int duration;  // steps; 0 = permanent
};

const CrashCase kCrashCases[] = {
    {"none", 0, 0},          {"half/5-steps", 64, 5},  {"half/permanent", 64, 0},
    {"full/5-steps", 128, 5}, {"full/permanent", 128, 0},
};

WorkflowConfig drop_config(double rate, int replication) {
  WorkflowConfig c = titan_middleware_experiment(0, Mode::AdaptiveMiddleware);
  c.faults.transfer_drop_rate = rate;
  c.replication = replication;
  return c;
}

WorkflowConfig crash_config(const CrashCase& cc, int replication) {
  WorkflowConfig c = titan_middleware_experiment(0, Mode::AdaptiveMiddleware);
  c.replication = replication;
  if (cc.servers > 0) {
    runtime::FaultSpec spec;
    spec.kind = runtime::FaultKind::ServerCrash;
    spec.step = 10;
    spec.servers = cc.servers;
    spec.duration_steps = cc.duration;
    c.faults.events.push_back(spec);
  }
  return c;
}

/// Fraction of scheduled analyses this run completed on the simulation
/// partition only because of a fault (transfer exhausted or staging down).
double degraded_fraction(const WorkflowResult& r) {
  const auto analyses = static_cast<double>(r.insitu_count + r.intransit_count);
  return analyses > 0.0 ? static_cast<double>(r.degraded_insitu_count) / analyses : 0.0;
}

/// The replication factor from `--replication N` (1 when absent); nullopt
/// for any other argument or for N that is not a whole integer >= 1.
std::optional<int> parse_replication(int argc, char** argv) {
  if (argc == 1) return 1;
  if (argc != 3 || std::strcmp(argv[1], "--replication") != 0) return std::nullopt;
  try {
    const int k = parse_number<int>(argv[2], "--replication");
    if (k >= 1) return k;
  } catch (const ContractError& e) {
    std::cerr << e.what() << "\n";
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<int> replication = parse_replication(argc, argv);
  if (!replication) {
    std::cerr << "usage: bench_fault_sweep [--replication N>=1]\n";
    return 2;
  }
  const int k = *replication;

  std::cout << "\n=== Fault sweep (a): transfer-fault rate vs end-to-end cost"
            << " (replication " << k << ") ===\n";
  std::vector<WorkflowResult> drops;
  for (double rate : kDropRates) drops.push_back(bench::run(drop_config(rate, k)).result);
  Table td({"drop rate", "end-to-end", "slowdown", "retries", "failures",
            "degraded analyses", "in-transit"});
  for (std::size_t i = 0; i < drops.size(); ++i) {
    const WorkflowResult& r = drops[i];
    td.row()
        .cell(format_percent(kDropRates[i]))
        .cell(format_seconds(r.end_to_end_seconds))
        .cell(r.end_to_end_seconds / drops[0].end_to_end_seconds, 3)
        .cell(r.transfer_retries)
        .cell(r.transfer_failures)
        .cell(format_percent(degraded_fraction(r)))
        .cell(r.intransit_count);
  }
  std::cout << td.to_string();

  std::cout << "\n=== Fault sweep (b): staging crash at step 10"
            << " (replication " << k << ") ===\n";
  std::vector<WorkflowResult> crashes;
  for (const CrashCase& cc : kCrashCases) {
    crashes.push_back(bench::run(crash_config(cc, k)).result);
  }
  Table tc({"crash", "end-to-end", "slowdown", "recoveries", "dropped bytes",
            "degraded analyses", "completed steps"});
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const WorkflowResult& r = crashes[i];
    tc.row()
        .cell(kCrashCases[i].label)
        .cell(format_seconds(r.end_to_end_seconds))
        .cell(r.end_to_end_seconds / crashes[0].end_to_end_seconds, 3)
        .cell(r.recoveries)
        .cell(format_bytes(static_cast<double>(r.dropped_bytes)))
        .cell(format_percent(degraded_fraction(r)))
        .cell(static_cast<int>(r.steps.size()));
  }
  std::cout << tc.to_string();
  return 0;
}
