// Frozen copies of the operator<< CSV writers that trace_io's table-driven
// writer replaced: the oracles of its bytes, as seed_kernels.hpp is for the
// kernels. Each row is one stream-insertion chain under the stream's default
// flags (precision 6, no fixed or scientific). Do not restyle them; the
// TraceIo tests assert that write_events_csv and write_steps_csv match them
// byte for byte.
#pragma once

#include <ostream>

#include "runtime/fault.hpp"
#include "runtime/middleware_policy.hpp"
#include "runtime/state.hpp"
#include "workflow/coupled_workflow.hpp"
#include "workflow/observer.hpp"

namespace xl::test {

inline void stream_steps_csv(std::ostream& os, const workflow::WorkflowResult& result) {
  os << "step,total_cells,analyzed_cells,factor,placement,intransit_cores,"
        "sim_seconds,reduce_seconds,insitu_analysis_seconds,"
        "intransit_analysis_seconds,wait_seconds,window_seconds,"
        "backlog_seconds,raw_bytes,moved_bytes,reason\n";
  for (const workflow::StepRecord& s : result.steps) {
    os << s.step << ',' << s.total_cells << ',' << s.analyzed_cells << ','
       << s.factor << ',' << runtime::placement_name(s.placement) << ','
       << s.intransit_cores << ',' << s.sim_seconds << ',' << s.reduce_seconds
       << ',' << s.insitu_analysis_seconds << ',' << s.intransit_analysis_seconds
       << ',' << s.wait_seconds << ',' << s.window_seconds << ','
       << s.backlog_seconds << ',' << s.raw_bytes << ',' << s.moved_bytes << ','
       << runtime::reason_name(s.decision_reason) << '\n';
  }
}

inline void stream_events_csv(std::ostream& os, const workflow::EventLog& log) {
  os << "event,step,sim_clock,staging_clock,placement,reason,factor,"
        "intransit_cores,app_adapted,resource_adapted,middleware_adapted,"
        "cells,bytes,seconds,wait_seconds,skipped,fault,attempt,"
        "backoff_seconds,servers_down,servers_suspected,replicas,pool_hits,"
        "pool_misses,pool_releases,pool_copied_bytes,indicator,"
        "trigger_threshold,triggers_fired,steps_suppressed\n";
  for (const workflow::WorkflowEvent& e : log.events()) {
    os << workflow::event_kind_name(e.kind) << ',' << e.step << ',' << e.sim_clock << ','
       << e.staging_clock << ',' << runtime::placement_name(e.placement) << ','
       << runtime::reason_name(e.reason) << ',' << e.factor << ','
       << e.intransit_cores << ',' << int(e.app_adapted) << ','
       << int(e.resource_adapted) << ',' << int(e.middleware_adapted) << ','
       << e.cells << ',' << e.bytes << ',' << e.seconds << ','
       << e.wait_seconds << ',' << int(e.skipped) << ','
       << runtime::fault_kind_name(e.fault) << ',' << e.attempt << ','
       << e.backoff_seconds << ',' << e.servers_down << ','
       << e.servers_suspected << ',' << e.replicas << ',' << e.pool_hits
       << ',' << e.pool_misses << ',' << e.pool_releases << ','
       << e.pool_copied_bytes << ',' << e.indicator << ','
       << e.trigger_threshold << ',' << e.triggers_fired << ','
       << e.steps_suppressed << '\n';
  }
}

}  // namespace xl::test
