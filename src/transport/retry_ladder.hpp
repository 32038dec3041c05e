// The transfer retry ladder: how a staged put recovers from lost attempts.
// The paper prices every put as an asynchronous send the simulation pays for
// (§4.2, eqs. 4–8). Under fault injection (runtime/fault.hpp) an attempt can
// be dropped on the wire or rejected as corrupt on arrival; the sender then
// blocks until it detects the loss, waits out an exponential backoff and
// tries again, until an attempt gets through or the retry budget is spent and
// the transfer fails. This is the only implementation of that arithmetic: the
// step pipeline's transfer phase charges what it returns to the simulation
// clock and reports it as events.
#pragma once

#include <cstdint>
#include <optional>

#include "runtime/fault.hpp"

namespace xl::transport {

/// Seconds a sender blocks before it notices a lost attempt: the timeout when
/// one is set (never later than the wire time), else the whole wire time (the
/// loss surfaces as a checksum reject on arrival).
double detection_seconds(const runtime::FaultConfig& faults,
                         double wire_seconds) noexcept;

/// Wait after lost attempt `attempt` (0-based) before the next one:
/// retry_backoff_seconds * backoff_multiplier^attempt.
double backoff_seconds(const runtime::FaultConfig& faults, int attempt) noexcept;

/// How one attempt of a transfer was lost.
struct LostAttempt {
  runtime::FaultKind fault = runtime::FaultKind::TransferDrop;  ///< drop or corrupt.
  double detect_seconds = 0.0;   ///< sender blocked until the loss is noticed.
  bool fatal = false;            ///< the retry budget is spent: the transfer fails.
  double backoff_seconds = 0.0;  ///< wait before the next attempt; 0 when fatal.
};

/// Attempt `attempt` of transfer `transfer` against the plan's fault oracle:
/// nullopt when it gets through, else how it was lost. The attempt numbered
/// max_transfer_retries is fatal. Callers walk attempts 0, 1, ... until an
/// attempt gets through or a loss is fatal.
std::optional<LostAttempt> lost_attempt(const runtime::FaultPlan& plan,
                                        std::uint64_t transfer, int attempt,
                                        double wire_seconds);

}  // namespace xl::transport
