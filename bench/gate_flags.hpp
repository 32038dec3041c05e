// Command line shared by the regression-gate benches (alloc_churn,
// kernel_scaling, des_scaling, chaos_sweep, trigger_sweep):
//
//   --quick   CI-sized run
//   --check   exit non-zero unless the bench's compiled-in gates hold
//   --json F  write the report as JSON to file F
#pragma once

#include <cstring>
#include <iostream>
#include <optional>
#include <string>

namespace xl::bench {

struct GateFlags {
  bool quick = false;
  bool check = false;
  std::string json_path;  ///< empty: no JSON report.
};

/// Parses argv. On anything else it prints the usage line for `bench` and
/// returns nullopt; the caller then exits with status 2.
inline std::optional<GateFlags> parse_gate_flags(int argc, char** argv,
                                                 const char* bench) {
  GateFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      flags.quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      flags.check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      flags.json_path = argv[++i];
    } else {
      std::cerr << "usage: " << bench << " [--quick] [--check] [--json FILE]\n";
      return std::nullopt;
    }
  }
  return flags;
}

}  // namespace xl::bench
