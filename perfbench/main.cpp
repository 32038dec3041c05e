// perfbench: runs one workload for a time budget and prints, as the last line
// of standard output, one JSON object with the run's correctness tally and its
// metrics — the end-to-end metrics untraced (--trace 0), the per-layer
// metrics traced (--trace 1). Human-readable detail goes to standard error.
//
//   perfbench --workload figs_titan|policy_sweep|real_loop --seed N
//             --seconds S --trace 0|1 --references FILE [--out-dir DIR]
//   perfbench --workload W --seed N --record      (reference lines for seed N)
//
// run.py builds this binary and is the benchmark's entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric a traced run reports, in print order. A layer the
/// workload does not run reports 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"amr.geometry_s", "s"},
    {"amr.geometry_calls", "count"},
    {"amr.boxes_per_step", "count"},
    {"mesh.balance_s", "s"},
    {"amr.synthetic_cluster_s", "s"},
    {"workflow.setup_s", "s"},
    {"workflow.step_s", "s"},
    {"workflow.self_s", "s"},
    {"workflow.finish_s", "s"},
    {"workflow.events", "count"},
    {"workflow.export_s", "s"},
    {"workflow.export_bytes", "bytes"},
    {"cluster.des_fired", "count"},
    {"runtime.decisions", "count"},
    {"runtime.triggers_fired", "count"},
    {"transport.retries", "count"},
    {"amr.advance_s", "s"},
    {"amr.advance_plain_p50_ms", "ms"},
    {"amr.advance_regrid_p50_ms", "ms"},
    {"amr.cell_updates", "count"},
    {"amr.godunov_s", "s"},
    {"amr.fill_cf_ghosts_s", "s"},
    {"mesh.exchange_s", "s"},
    {"amr.regrid_cluster_s", "s"},
    {"viz.insitu_s", "s"},
    {"viz.insitu_triangles", "count"},
    {"analysis.entropy_s", "s"},
    {"analysis.downsample_s", "s"},
    {"staging.put_s", "s"},
    {"staging.puts", "count"},
    {"staging.rejected_puts", "count"},
    {"staging.ack_wait_s", "s"},
    {"staging.analysis_s", "s"},
    {"staging.busy_s", "s"},
    {"staging.queue_wait_s", "s"},
    {"staging.drain_s", "s"},
    {"staging.intransit_triangles", "count"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.replay_s", "s"},
};

struct Args {
  std::string workload;
  std::string seed;
  double seconds = 10.0;
  int trace = 0;
  std::string references;
  std::string out_dir = ".bench_out";
  bool record = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload figs_titan|policy_sweep|real_loop --seed N "
               "--seconds S --trace 0|1 --references FILE [--out-dir DIR] [--record]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = value;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds needs a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--references") {
      a.references = value;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seed.empty()) usage("--workload and --seed are required");
  if (a.seed.find_first_not_of("0123456789") != std::string::npos || a.seed.size() > 19) {
    usage("--seed must be a non-negative integer");
  }
  if (!a.record && a.references.empty()) usage("--references is required");
  return a;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  xl::ThreadPool::set_global_workers(0);  // the kernels run serially on the calling thread

  RunOptions options;
  options.variant = static_cast<int>(std::strtoull(args.seed.c_str(), nullptr, 10) % kVariants);
  options.seconds = args.seconds;
  options.trace = args.trace == 1;
  options.record = args.record;

  RunResult rr;
  try {
    const References refs(args.references);
    options.refs = &refs;
    if (args.workload == "figs_titan") {
      rr = run_figs_titan(options);
    } else if (args.workload == "policy_sweep") {
      rr = run_policy_sweep(options);
    } else if (args.workload == "real_loop") {
      rr = run_real_loop(options);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  if (args.record) {
    for (const std::string& line : rr.record_lines) std::cout << line << "\n";
    return 0;
  }

  for (const std::string& f : rr.failures) std::cerr << "FAILED: " << f << "\n";
  const double failed_frac =
      rr.attempted > 0 ? static_cast<double>(rr.failed) / static_cast<double>(rr.attempted) : 1.0;
  std::cerr << "perfbench " << args.workload << " seed=" << args.seed
            << " variant=" << options.variant << ": " << rr.wall_s.size() << " untraced units, "
            << rr.traced_units << " traced units, " << rr.step_ms.size() << " steps timed\n"
            << "  failed_frac = " << failed_frac << " (" << rr.failed << " of " << rr.attempted
            << " operations)\n";

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!options.trace) {
    const BestRepeats kept = best_repeats(rr);
    const std::size_t n = kept.step_ms.size();
    const double tail = highest_supported_percentile(n);
    if (tail < 90.0) {
      std::cerr << "  warning: " << n << " step samples support only p" << tail
                << "; step_p90_ms rests on fewer than 10 samples\n";
    }
    metrics = {
        {"setup_s", {median(rr.setup_s), "s"}},
        {"wall_s", {median(kept.wall_s), "s"}},
        {"step_p50_ms", {median(kept.step_ms), "ms"}},
        {"step_p90_ms", {percentile(kept.step_ms, 90.0), "ms"}},
        {"peak_rss_mb", {rr.peak_rss_mb, "MB"}},
        {"ok_frac", {1.0 - failed_frac, "ratio"}},
    };
    std::cerr << "  unit walls (s):";
    for (double w : rr.wall_s) std::cerr << " " << w;
    std::cerr << "\n  timings from the best repeats: " << kept.wall_s.size() << " kind(s) over "
              << rr.wall_s.size() << " units (all units: wall median " << median(rr.wall_s) << " s, step p50 "
              << median(rr.step_ms) << " ms)\n  samples: setup " << rr.setup_s.size()
              << ", steps " << n << "; highest supported step percentile p" << tail << " = "
              << percentile(kept.step_ms, tail) << " ms\n";
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = rr.layers.find(name);
      metrics.push_back({name, it != rr.layers.end() ? it->second
                                                     : std::make_pair(0.0, std::string(unit))});
    }
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" + args.seed;
    try {
      write_chrome_trace(stem + ".trace.json", rr.spans, 200000);
      write_summary(stem + ".layers.json", rr.spans, rr.traced_units);
      std::cerr << "  trace: " << stem << ".trace.json (" << rr.spans.size()
                << " spans), layer self times: " << stem << ".layers.json\n";
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 1;
    }
  }

  std::string json = "{\"correct\": " + std::string(rr.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rr.attempted) +
                     ", \"failed\": " + std::to_string(rr.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    std::cerr << "  " << name << " = " << number(vu.first) << " " << vu.second << "\n";
    json += (i ? ", " : "") + std::string("\"") + name + "\": {\"value\": " + number(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
