// The execution substrate behind the step pipeline: the paper's two partition
// clocks (eq. 4's simulation clock and eq. 5's staging clock) and the FIFO of
// staged buffers whose memory couples them. The base class owns both clocks,
// the FIFO and every piece of arithmetic on them (enqueue, shed, release);
// the two implementations differ only in how releases are triggered:
//
//  * AnalyticSubstrate — closed form: releases happen when the pipeline asks
//    (once per step, and while it waits for staging memory);
//  * EventQueueSubstrate — each staged buffer schedules a release event on
//    the deterministic cluster::EventQueue, the seam where finer-grained
//    machine events (per-message transfers, per-core contention) plug in.
//
// Releases follow one rule on both: the FIFO head leaves once its analysis
// completed, and a buffer behind an unfinished head waits for it. So both
// produce identical timelines on identical inputs; regression tests assert it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>

#include "cluster/event_queue.hpp"

namespace xl::workflow {

/// What a staging-server loss cost the in-flight staged buffers.
struct ShedReport {
  std::size_t bytes = 0;    ///< staged bytes dropped.
  std::size_t buffers = 0;  ///< staged buffers that lost data.
};

class ExecutionSubstrate {
 public:
  ExecutionSubstrate() = default;
  ExecutionSubstrate(const ExecutionSubstrate&) = delete;
  ExecutionSubstrate& operator=(const ExecutionSubstrate&) = delete;
  virtual ~ExecutionSubstrate() = default;

  virtual const char* name() const noexcept = 0;

  /// Simulation-partition clock (eq. 4).
  double sim_now() const noexcept { return t_sim_; }
  /// Time the staging partition finishes its current backlog (eq. 5).
  double staging_free_at() const noexcept { return staging_free_at_; }
  /// Bytes currently cached in the staging area (released when the
  /// corresponding in-transit analysis completes).
  std::size_t staging_mem_used() const noexcept { return mem_used_; }
  /// Seconds until the staging cores finish their backlog, as seen from the
  /// simulation clock (the monitor's eq. 7 input); 0 when staging is idle.
  double backlog_seconds() const noexcept {
    return std::max(0.0, staging_free_at_ - t_sim_);
  }

  /// Advance the simulation clock by a finite, non-negative `seconds`: sim
  /// steps, reductions, in-situ analyses, adaptation overhead, and transfer
  /// initiation and retry costs all accrue here.
  void advance_sim(double seconds);

  /// Release staged buffers whose in-transit analysis completed by the
  /// current simulation clock. Called once per step before the monitor
  /// snapshot — matching when the simulation partition actually observes
  /// staging state, rather than eagerly on every clock advance.
  virtual void release_completed() = 0;

  /// Block the simulation until the staging area can admit `bytes` more on
  /// top of what it holds (the paper's T_insitu_wait); gives up when no
  /// staged buffer remains to wait for. Returns the seconds waited.
  virtual double wait_for_staging_memory(std::size_t bytes, std::size_t capacity) = 0;

  /// Hand `bytes` arriving at `arrive` to the staging partition; the buffer
  /// occupies staging memory until its `analysis_seconds` of in-transit work
  /// completes (FIFO behind the existing backlog). Returns completion time.
  double enqueue_intransit(double arrive, double analysis_seconds, std::size_t bytes);

  /// Fault path: staging servers died, losing `lost_fraction` of every
  /// in-flight staged buffer (1.0 = the whole partition went down, which also
  /// abandons the backlog). Buffers shrink in FIFO order; a fully shed buffer
  /// stays in the FIFO as a zero-byte entry until its analysis completes.
  ShedReport shed_staged(double lost_fraction);

  /// Drain all outstanding staging work and return the time-to-solution:
  /// max of the two partition clocks (eq. 6).
  virtual double finish() = 0;

 protected:
  /// Release FIFO heads whose analysis completed by `t`. A full outage pulls
  /// the staging clock back, so completion times need not be monotone along
  /// the FIFO: a buffer behind a later-finishing head waits for that head.
  void release_until(double t);
  bool has_staged() const noexcept { return !staged_.empty(); }
  /// Completion time of the FIFO head (requires has_staged()).
  double head_done_at() const noexcept { return staged_.front().first; }

  double t_sim_ = 0.0;

 private:
  /// A buffer completing at `done` joined the FIFO.
  virtual void on_enqueue(double /*done*/) {}

  double staging_free_at_ = 0.0;
  std::size_t mem_used_ = 0;
  std::deque<std::pair<double, std::size_t>> staged_;  ///< (completion time, live bytes).
};

/// Closed-form clocks: releases happen only when the pipeline asks.
class AnalyticSubstrate final : public ExecutionSubstrate {
 public:
  const char* name() const noexcept override { return "analytic"; }
  void release_completed() override { release_until(t_sim_); }
  double wait_for_staging_memory(std::size_t bytes, std::size_t capacity) override;
  double finish() override { return std::max(t_sim_, staging_free_at()); }
};

/// The same timeline driven through the deterministic discrete-event engine:
/// each staged buffer's completion is a release event; waits and drains run
/// the queue.
class EventQueueSubstrate final : public ExecutionSubstrate {
 public:
  const char* name() const noexcept override { return "discrete-event"; }
  void release_completed() override { queue_.run_until(t_sim_); }
  double wait_for_staging_memory(std::size_t bytes, std::size_t capacity) override;
  double finish() override;

  const cluster::EventQueue& queue() const noexcept { return queue_; }

 private:
  void on_enqueue(double done) override;

  cluster::EventQueue queue_;
};

}  // namespace xl::workflow
