// Tests for the remaining §2/§3 adaptation dimensions: region-of-interest
// analysis and temporal-resolution adaptation (analysis interval + skip
// under memory pressure).
#include <gtest/gtest.h>

#include "workflow/coupled_workflow.hpp"

namespace xl::workflow {
namespace {

WorkflowConfig base_config(Mode mode) {
  WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 12;
  c.mode = mode;
  c.geometry.base_domain = mesh::Box::domain({128, 64, 64});
  c.geometry.tile_size = 8;
  c.memory_model.ncomp = 1;
  return c;
}

TEST(RegionOfInterest, RestrictsAnalyzedCells) {
  WorkflowConfig full = base_config(Mode::StaticInTransit);
  WorkflowConfig roi = base_config(Mode::StaticInTransit);
  // Half the domain: the front is centered, so a half-box ROI cuts the
  // analyzed cells roughly in half.
  roi.regions_of_interest = {mesh::Box({0, 0, 0}, {63, 63, 63})};
  const WorkflowResult r_full = CoupledWorkflow(full).run();
  const WorkflowResult r_roi = CoupledWorkflow(roi).run();
  for (std::size_t i = 0; i < r_full.steps.size(); ++i) {
    EXPECT_LT(r_roi.steps[i].analyzed_cells, r_full.steps[i].analyzed_cells);
    EXPECT_GT(r_roi.steps[i].analyzed_cells, 0u);
    // Same simulation either way.
    EXPECT_EQ(r_roi.steps[i].total_cells, r_full.steps[i].total_cells);
  }
  EXPECT_LT(r_roi.bytes_moved, r_full.bytes_moved);
}

TEST(RegionOfInterest, FullDomainRoiMatchesNoRoi) {
  WorkflowConfig none = base_config(Mode::StaticInTransit);
  WorkflowConfig whole = base_config(Mode::StaticInTransit);
  whole.regions_of_interest = {whole.geometry.base_domain};
  const WorkflowResult a = CoupledWorkflow(none).run();
  const WorkflowResult b = CoupledWorkflow(whole).run();
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].analyzed_cells, b.steps[i].analyzed_cells);
  }
}

TEST(RegionOfInterest, DisjointRoiAnalyzesNothing) {
  WorkflowConfig c = base_config(Mode::StaticInSitu);
  // Corner far from the centered front and the (seeded) blobs at early steps.
  c.steps = 3;
  c.regions_of_interest = {mesh::Box({0, 0, 0}, {7, 7, 7})};
  const WorkflowResult r = CoupledWorkflow(c).run();
  for (const StepRecord& s : r.steps) {
    // Either the ROI genuinely catches nothing (analysis skipped), or a
    // coarse Berger-Rigoutsos box grazes the corner: a tiny sliver at most.
    if (!s.analysis_skipped) {
      EXPECT_LT(s.analyzed_cells, s.total_cells / 100);
    }
  }
  EXPECT_EQ(r.insitu_count + r.intransit_count + r.skipped_count,
            static_cast<int>(r.steps.size()));
}

TEST(TemporalResolution, IntervalSkipsOffScheduleSteps) {
  WorkflowConfig c = base_config(Mode::StaticInTransit);
  c.analysis_interval = 3;
  const WorkflowResult r = CoupledWorkflow(c).run();
  EXPECT_EQ(r.skipped_count, 8);  // 12 steps, analyzed at 0,3,6,9
  EXPECT_EQ(r.insitu_count + r.intransit_count, 4);
  for (const StepRecord& s : r.steps) {
    if (s.step % 3 == 0) {
      EXPECT_FALSE(s.analysis_skipped);
      EXPECT_GT(s.moved_bytes, 0u);
    } else {
      EXPECT_TRUE(s.analysis_skipped);
      EXPECT_EQ(s.moved_bytes, 0u);
      EXPECT_EQ(s.reduce_seconds, 0.0);
    }
  }
}

TEST(TemporalResolution, SkippingReducesOverheadAndMovement) {
  WorkflowConfig every = base_config(Mode::StaticInTransit);
  WorkflowConfig sparse = base_config(Mode::StaticInTransit);
  sparse.analysis_interval = 4;
  const WorkflowResult r_every = CoupledWorkflow(every).run();
  const WorkflowResult r_sparse = CoupledWorkflow(sparse).run();
  EXPECT_LT(r_sparse.bytes_moved, r_every.bytes_moved);
  EXPECT_LE(r_sparse.overhead_seconds, r_every.overhead_seconds + 1e-12);
  EXPECT_NEAR(r_sparse.pure_sim_seconds, r_every.pure_sim_seconds, 1e-9);
}

TEST(TemporalResolution, ConstrainedSkipRequiresGlobalModeAndFlag) {
  // With the flag off, a memory-constrained application decision still
  // analyzes (at the largest factor); with it on, the step is skipped.
  WorkflowConfig c = base_config(Mode::Global);
  c.hints.factor_phases = {{0, {2}}};  // single factor: easily constrained
  // Make in-situ memory hopeless so the decision is always constrained.
  c.memory_model.base_runtime_bytes = c.machine.mem_per_core_bytes();
  c.skip_analysis_when_constrained = false;
  const WorkflowResult analyzed = CoupledWorkflow(c).run();
  EXPECT_EQ(analyzed.skipped_count, 0);

  c.skip_analysis_when_constrained = true;
  const WorkflowResult skipped = CoupledWorkflow(c).run();
  EXPECT_EQ(skipped.skipped_count, c.steps);
  EXPECT_EQ(skipped.bytes_moved, 0u);
}

}  // namespace
}  // namespace xl::workflow
