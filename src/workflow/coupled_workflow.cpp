#include "workflow/coupled_workflow.hpp"

#include "common/error.hpp"
#include "workflow/execution_substrate.hpp"
#include "workflow/step_pipeline.hpp"

namespace xl::workflow {

const char* analysis_kind_name(AnalysisKind kind) noexcept {
  switch (kind) {
    case AnalysisKind::Isosurface: return "isosurface";
    case AnalysisKind::Statistics: return "statistics";
    case AnalysisKind::Subsetting: return "subsetting";
  }
  return "?";
}

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::StaticInSitu: return "static-insitu";
    case Mode::StaticInTransit: return "static-intransit";
    case Mode::StaticHybrid: return "static-hybrid";
    case Mode::AdaptiveMiddleware: return "adaptive-middleware";
    case Mode::AdaptiveResource: return "adaptive-resource";
    case Mode::Global: return "global-crosslayer";
  }
  return "?";
}

CoupledWorkflow::CoupledWorkflow(const WorkflowConfig& config) : config_(config) {
  XL_REQUIRE(config.sim_cores >= 1, "need simulation cores");
  XL_REQUIRE(config.staging_cores >= 1, "need staging cores");
  XL_REQUIRE(config.steps >= 1, "need at least one step");
  XL_REQUIRE(config.ncomp >= 1, "need at least one component");
  XL_REQUIRE(config.staging_usable_fraction > 0.0 && config.staging_usable_fraction <= 1.0,
             "staging usable fraction in (0,1]");
}

WorkflowResult CoupledWorkflow::run() {
  AnalyticSubstrate substrate;
  return run_on(substrate);
}

WorkflowResult CoupledWorkflow::run_on(ExecutionSubstrate& substrate) {
  StepPipeline pipeline(config_, substrate, log_);
  for (int step = 0; step < config_.steps; ++step) pipeline.run_step(step);
  return pipeline.finish();
}

}  // namespace xl::workflow
