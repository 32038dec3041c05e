#include "workflow/execution_substrate.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"

namespace xl::workflow {

// --- ExecutionSubstrate ------------------------------------------------------

void ExecutionSubstrate::advance_sim(double seconds) {
  XL_ASSERT(std::isfinite(seconds) && seconds >= 0.0,
            "cannot advance the simulation clock by " << seconds << "s");
  t_sim_ += seconds;
}

double ExecutionSubstrate::enqueue_intransit(double arrive, double analysis_seconds,
                                             std::size_t bytes) {
  XL_ASSERT(std::isfinite(arrive) && std::isfinite(analysis_seconds) &&
                analysis_seconds >= 0.0,
            "bad in-transit enqueue: arrive=" << arrive << " analysis=" << analysis_seconds);
  const double start = std::max(arrive, staging_free_at_);
  staging_free_at_ = start + analysis_seconds;
  mem_used_ += bytes;
  staged_.emplace_back(staging_free_at_, bytes);
  on_enqueue(staging_free_at_);
  return staging_free_at_;
}

ShedReport ExecutionSubstrate::shed_staged(double lost_fraction) {
  const bool full = lost_fraction >= 1.0;
  ShedReport report;
  for (auto& [done, bytes] : staged_) {
    const std::size_t lost =
        full ? bytes
             : f2s(lost_fraction * static_cast<double>(bytes));
    if (lost == 0) continue;
    bytes -= lost;
    mem_used_ -= lost;
    report.bytes += lost;
    ++report.buffers;
  }
  // A full outage abandons the backlog: the staging clock stops accruing.
  if (full) staging_free_at_ = std::min(staging_free_at_, t_sim_);
  return report;
}

void ExecutionSubstrate::release_until(double t) {
  while (!staged_.empty() && staged_.front().first <= t) {
    XL_ASSERT(mem_used_ >= staged_.front().second,
              "staging memory accounting underflow: used=" << mem_used_
                                                           << " releasing "
                                                           << staged_.front().second);
    mem_used_ -= staged_.front().second;
    staged_.pop_front();
  }
}

// --- AnalyticSubstrate -------------------------------------------------------

double AnalyticSubstrate::wait_for_staging_memory(std::size_t bytes,
                                                  std::size_t capacity) {
  const double before = t_sim_;
  while (staging_mem_used() + bytes > capacity && has_staged()) {
    t_sim_ = std::max(t_sim_, head_done_at());
    release_until(t_sim_);
  }
  return t_sim_ - before;
}

// --- EventQueueSubstrate -----------------------------------------------------

void EventQueueSubstrate::on_enqueue(double done) {
  queue_.schedule_at(done, [this] { release_until(queue_.now()); });
}

double EventQueueSubstrate::wait_for_staging_memory(std::size_t bytes,
                                                    std::size_t capacity) {
  const double before = t_sim_;
  while (staging_mem_used() + bytes > capacity && has_staged()) {
    // The FIFO head's release event is still pending; events before it
    // release nothing but move the clock.
    const bool fired = queue_.run_one();
    XL_ASSERT(fired, "staged buffer without a pending release event");
    t_sim_ = std::max(t_sim_, queue_.now());
  }
  return t_sim_ - before;
}

double EventQueueSubstrate::finish() {
  queue_.run_until_empty();
  return std::max(t_sim_, staging_free_at());
}

}  // namespace xl::workflow
