// Final-seam tests: synthetic-evolution decay and experiment factories,
// file-writing paths of the exporters/renderer, and monitor cadence — the
// few behaviours the earlier suites touch only in passing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "amr/synthetic.hpp"
#include "viz/render.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/experiment.hpp"
#include "workflow/trace_io.hpp"

namespace xl {
namespace {

TEST(SyntheticDecay, BandThinsAfterOnset) {
  amr::SyntheticAmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({128, 64, 64});
  cfg.nranks = 8;
  cfg.tile_size = 4;
  cfg.front_thickness = 0.2;  // several tiles thick, so thinning is visible
  cfg.front_decay = 0.7;
  cfg.front_decay_onset = 10;
  cfg.num_blobs = 0;  // isolate the front
  amr::SyntheticAmrEvolution evo(cfg);

  // Refined cells grow before the onset (radius grows), shrink well after it
  // (band thins faster than the radius grows).
  auto refined = [&](int step) {
    const amr::SyntheticStep s = evo.at(step);
    return s.total_cells - s.cells_per_level[0];
  };
  EXPECT_GT(refined(9), refined(2));
  EXPECT_LT(refined(16), refined(10));
  // And the band eventually vanishes entirely once decay dominates.
  EXPECT_EQ(refined(60), 0);
}

TEST(SyntheticDecay, NoDecayKeepsGrowing) {
  amr::SyntheticAmrConfig cfg;
  cfg.base_domain = mesh::Box::domain({128, 64, 64});
  cfg.nranks = 8;
  cfg.tile_size = 4;
  cfg.front_decay = 1.0;  // default: never decays
  cfg.num_blobs = 0;
  amr::SyntheticAmrEvolution evo(cfg);
  const amr::SyntheticStep early = evo.at(5);
  const amr::SyntheticStep late = evo.at(25);
  EXPECT_GT(late.total_cells - late.cells_per_level[0],
            early.total_cells - early.cells_per_level[0]);
}

TEST(ExperimentFactories, TitanGeometryScalesShellWithAspect) {
  // The 16K domain (2048x2048x1024) has 4x the volume-per-shortest-edge^3 of
  // the 4K cube; its shell thickness scales accordingly so the refined
  // FRACTION of the volume matches across scales.
  const auto g4 = workflow::titan_middleware_experiment(1, workflow::Mode::StaticInSitu);
  const auto g16 = workflow::titan_middleware_experiment(3, workflow::Mode::StaticInSitu);
  EXPECT_NEAR(g16.geometry.front_thickness / g4.geometry.front_thickness, 4.0, 1e-9);
}

TEST(ExperimentFactories, IntrepidAnalysisShipsOneComponent) {
  const auto c = workflow::intrepid_resource_experiment(workflow::Mode::AdaptiveResource);
  EXPECT_EQ(c.ncomp, 5);
  EXPECT_EQ(c.analysis_ncomp, 1);
  EXPECT_EQ(c.objective, runtime::Objective::MaximizeResourceUtilization);
}

TEST(TraceIoFile, WritesCsvToDisk) {
  workflow::WorkflowConfig c;
  c.machine = cluster::test_machine();
  c.sim_cores = 32;
  c.staging_cores = 4;
  c.steps = 4;
  c.geometry.base_domain = mesh::Box::domain({64, 32, 32});
  c.memory_model.ncomp = 1;
  const workflow::WorkflowResult r = workflow::CoupledWorkflow(c).run();
  const std::string path = "test_trace_io.csv";
  workflow::write_steps_csv(path, r);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.substr(0, 5), "step,");
  std::remove(path.c_str());
}

TEST(RenderFile, WritesPpmToDisk) {
  viz::TriangleMesh m;
  m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  viz::RenderConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  const viz::Image img = viz::render_mesh(m, cfg);
  const std::string path = "test_render.ppm";
  img.write_ppm_file(path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  char magic[2];
  in.read(magic, 2);
  EXPECT_EQ(magic[0], 'P');
  EXPECT_EQ(magic[1], '6');
  std::remove(path.c_str());
}

TEST(MonitorCadence, SamplingGovernsAdaptationCount) {
  workflow::WorkflowConfig c;
  c.machine = cluster::titan();
  c.sim_cores = 128;
  c.staging_cores = 8;
  c.steps = 12;
  c.mode = workflow::Mode::Global;
  c.geometry.base_domain = mesh::Box::domain({128, 64, 64});
  c.memory_model.ncomp = 1;
  c.hints.factor_phases = {{0, {2, 4}}};
  c.monitor.sampling_period = 4;
  const workflow::WorkflowResult r = workflow::CoupledWorkflow(c).run();
  // Steps 0,4,8 sample -> exactly 3 engine invocations per layer.
  EXPECT_EQ(r.middleware_adaptations, 3);
  EXPECT_EQ(r.application_adaptations, 3);
  EXPECT_EQ(r.resource_adaptations, 3);
}

}  // namespace
}  // namespace xl
