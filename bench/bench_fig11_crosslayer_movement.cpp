// Fig. 11 reproduction: total data movement of global (cross-layer)
// adaptation vs local middleware-only adaptation.
//
// Paper reference: movement drops 45.93/17.25/5.76/32.41% — the in-situ data
// reduction dominates even though more steps run in-transit. Our reduction is
// stronger than the paper's (see EXPERIMENTS.md): the paper's factor-X hint
// set yields an effective per-step reduction milder than X^3 on their runs,
// while our application layer reduces every step by at least 2^3. The
// direction — global moves less despite analyzing in-transit as often or
// more — is what this figure checks.
#include <iostream>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

int main() {
  std::cout << "\n=== Figure 11: data movement, local vs global adaptation (GB) ===\n";
  Table t({"cores", "local adaptation", "global adaptation", "reduction",
           "paper reduction", "in-transit steps (local/global)"});
  const char* paper[] = {"45.93%", "17.25%", "5.76%", "32.41%"};
  for (int scale = 0; scale < 4; ++scale) {
    const WorkflowResult local =
        bench::run(titan_global_experiment(scale, Mode::AdaptiveMiddleware)).result;
    const WorkflowResult global =
        bench::run(titan_global_experiment(scale, Mode::Global)).result;
    t.row()
        .cell(titan_scales()[static_cast<std::size_t>(scale)].label)
        .cell(static_cast<double>(local.bytes_moved) / 1e9, 1)
        .cell(static_cast<double>(global.bytes_moved) / 1e9, 1)
        .cell(format_percent(1.0 - static_cast<double>(global.bytes_moved) /
                                       static_cast<double>(local.bytes_moved)))
        .cell(paper[scale])
        .cell(std::to_string(local.intransit_count) + "/" +
              std::to_string(global.intransit_count));
  }
  std::cout << t.to_string();
  return 0;
}
