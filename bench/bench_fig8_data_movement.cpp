// Fig. 8 reproduction: total in-situ -> in-transit data movement (GB) of
// static in-transit placement vs adaptive placement at the four Titan scales.
//
// Paper reference: adaptive placement reduces the aggregated transfer volume
// by 50.00/48.00/47.90/39.04% at 2K/4K/8K/16K cores.
#include <iostream>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

int main() {
  std::cout << "\n=== Figure 8: aggregated in-situ -> in-transit transfers (GB) ===\n";
  Table t({"cores", "in-transit placement", "adaptive placement", "reduction",
           "paper reduction"});
  const char* paper[] = {"50.00%", "48.00%", "47.90%", "39.04%"};
  for (int scale = 0; scale < 4; ++scale) {
    const WorkflowResult fixed =
        bench::run(titan_middleware_experiment(scale, Mode::StaticInTransit)).result;
    const WorkflowResult adaptive =
        bench::run(titan_middleware_experiment(scale, Mode::AdaptiveMiddleware)).result;
    t.row()
        .cell(titan_scales()[static_cast<std::size_t>(scale)].label)
        .cell(static_cast<double>(fixed.bytes_moved) / 1e9, 1)
        .cell(static_cast<double>(adaptive.bytes_moved) / 1e9, 1)
        .cell(format_percent(1.0 - static_cast<double>(adaptive.bytes_moved) /
                                       static_cast<double>(fixed.bytes_moved)))
        .cell(paper[scale]);
  }
  std::cout << t.to_string();
  return 0;
}
