#include "transport/retry_ladder.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

namespace xl::transport {

double detection_seconds(const runtime::FaultConfig& faults,
                         double wire_seconds) noexcept {
  return faults.transfer_timeout_seconds > 0.0
             ? std::min(faults.transfer_timeout_seconds, wire_seconds)
             : wire_seconds;
}

double backoff_seconds(const runtime::FaultConfig& faults, int attempt) noexcept {
  double backoff = faults.retry_backoff_seconds;
  for (int i = 0; i < attempt; ++i) backoff *= faults.backoff_multiplier;
  return backoff;
}

std::optional<LostAttempt> lost_attempt(const runtime::FaultPlan& plan,
                                        std::uint64_t transfer, int attempt,
                                        double wire_seconds) {
  const std::optional<runtime::FaultKind> fate =
      plan.transfer_attempt_fault(transfer, attempt);
  if (!fate) return std::nullopt;
  const runtime::FaultConfig& faults = plan.config();
  LostAttempt lost;
  lost.fault = *fate;
  lost.detect_seconds = detection_seconds(faults, wire_seconds);
  lost.fatal = attempt >= faults.max_transfer_retries;
  if (!lost.fatal) lost.backoff_seconds = backoff_seconds(faults, attempt);
  return lost;
}

}  // namespace xl::transport
