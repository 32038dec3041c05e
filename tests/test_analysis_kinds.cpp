// Tests for the selectable analysis kinds (the paper's "descriptive
// statistics / data subsetting" extension claim).
#include <gtest/gtest.h>

#include "workflow/coupled_workflow.hpp"

namespace xl {
namespace {

workflow::WorkflowConfig kind_config(workflow::AnalysisKind kind) {
  workflow::WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 10;
  c.mode = workflow::Mode::StaticInSitu;
  c.geometry.base_domain = mesh::Box::domain({128, 64, 64});
  c.memory_model.ncomp = 1;
  c.analysis_kind = kind;
  return c;
}

TEST(AnalysisKinds, CheaperKernelsCostLessOverhead) {
  using workflow::AnalysisKind;
  const double iso =
      workflow::CoupledWorkflow(kind_config(AnalysisKind::Isosurface)).run().overhead_seconds;
  const double stats =
      workflow::CoupledWorkflow(kind_config(AnalysisKind::Statistics)).run().overhead_seconds;
  const double subset =
      workflow::CoupledWorkflow(kind_config(AnalysisKind::Subsetting)).run().overhead_seconds;
  EXPECT_LT(stats, iso);
  EXPECT_LT(subset, stats);
  EXPECT_GT(subset, 0.0);
}

TEST(AnalysisKinds, Names) {
  using workflow::AnalysisKind;
  EXPECT_STREQ(workflow::analysis_kind_name(AnalysisKind::Isosurface), "isosurface");
  EXPECT_STREQ(workflow::analysis_kind_name(AnalysisKind::Statistics), "statistics");
  EXPECT_STREQ(workflow::analysis_kind_name(AnalysisKind::Subsetting), "subsetting");
}

TEST(AnalysisKinds, AdaptivePlacementWorksForAllKinds) {
  using workflow::AnalysisKind;
  for (AnalysisKind kind : {AnalysisKind::Isosurface, AnalysisKind::Statistics,
                            AnalysisKind::Subsetting}) {
    workflow::WorkflowConfig c = kind_config(kind);
    c.mode = workflow::Mode::AdaptiveMiddleware;
    const workflow::WorkflowResult r = workflow::CoupledWorkflow(c).run();
    EXPECT_EQ(r.insitu_count + r.intransit_count, 10) << analysis_kind_name(kind);
    EXPECT_GE(r.end_to_end_seconds, r.pure_sim_seconds);
  }
}

}  // namespace
}  // namespace xl
