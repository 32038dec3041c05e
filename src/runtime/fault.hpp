// Deterministic fault injection for the staging/transport layers. A FaultPlan
// is a seeded oracle over (transfer, attempt) pairs and per-step staging
// health: the same plan always produces the same crashes, drops, and
// stragglers regardless of the order callers query it, so the analytic and
// discrete-event substrates (and repeated runs) see byte-identical failure
// timelines. The paper's runtime assumes the staging partition never fails;
// this module supplies the missing failure model the recovery paths in the
// middleware/resource policies and the step pipeline react to.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace xl::runtime {

/// Taxonomy of injectable faults.
enum class FaultKind {
  None,             ///< no fault (event records default to this).
  ServerCrash,      ///< staging server(s) die at a step, losing their objects.
  TransferDrop,     ///< a transfer attempt vanishes on the wire (timeout).
  TransferCorrupt,  ///< a transfer attempt arrives corrupt (checksum reject).
  Straggler,        ///< staging cores slowed by a multiplier for a window.
};

const char* fault_kind_name(FaultKind kind) noexcept;

/// One scheduled fault (crash or straggler window).
struct FaultSpec {
  FaultKind kind = FaultKind::ServerCrash;
  int step = 0;            ///< step at which the fault fires.
  int duration_steps = 0;  ///< steps until recovery; 0 = permanent.
  int servers = 1;         ///< ServerCrash: staging cores/servers lost.
  double slowdown = 2.0;   ///< Straggler: multiplier on in-transit time.
};

struct FaultConfig {
  std::uint64_t seed = 0x5EEDFA17u;
  /// Per-attempt probability a transfer is dropped on the wire.
  double transfer_drop_rate = 0.0;
  /// Per-attempt probability a transfer arrives corrupt (and is rejected).
  double transfer_corrupt_rate = 0.0;
  // The retry ladder's knobs; transport/retry_ladder.hpp applies them.
  /// Retries after the first attempt before a transfer fails.
  int max_transfer_retries = 3;
  /// Backoff before retry r is base * multiplier^r (exponential backoff).
  double retry_backoff_seconds = 1.0e-3;
  double backoff_multiplier = 2.0;
  /// Detection deadline for a lost attempt; 0 = detected at the modeled wire
  /// time (corrupt data is always detected on arrival).
  double transfer_timeout_seconds = 0.0;
  /// Heartbeat/lease failure detection: steps a server's heartbeat must be
  /// missing before the Monitor declares it dead. 0 = oracle-instant
  /// detection (a crash is acted on at the step it fires, the pre-lease
  /// behavior). While a crashed server is inside its lease window it is only
  /// *suspected*: no shed, no repair, but in-flight transfers retry against
  /// it once (the put-racing-a-dying-server path).
  int lease_steps = 0;
  std::vector<FaultSpec> events;

  bool enabled() const noexcept {
    return transfer_drop_rate > 0.0 || transfer_corrupt_rate > 0.0 ||
           !events.empty();
  }
};

/// Parse a compact fault spec: semicolon-separated clauses of
///   seed=N  drop=P  corrupt=P  retries=N  backoff=S  backoff_mult=X
///   timeout=S  lease=N  crash=STEP[:SERVERS[:DURATION]]
///   straggler=STEP[:SLOW[:DURATION]]  (SLOW at most 1e6)
/// e.g. "seed=7;drop=0.1;lease=2;crash=10:2:5". Throws ContractError on bad
/// input.
FaultConfig parse_fault_spec(const std::string& spec);

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& config) : config_(config) {}

  bool enabled() const noexcept { return config_.enabled(); }
  const FaultConfig& config() const noexcept { return config_; }

  /// Stateless draw: does attempt `attempt` of transfer `transfer` fail, and
  /// how? The verdict depends only on (seed, transfer, attempt), never on
  /// query order, so every substrate replays the same failures.
  std::optional<FaultKind> transfer_attempt_fault(std::uint64_t transfer,
                                                  int attempt) const;

  /// Staging servers down at `step` (sum of the active ServerCrash windows).
  /// This is the GROUND TRUTH the chaos schedule defines; the runtime only
  /// learns of a crash once the lease expires (detected_down_at).
  int servers_down_at(int step) const noexcept;

  /// Servers the heartbeat monitor has DECLARED dead by `step`: the minimum
  /// of servers_down_at over the trailing lease window [step - lease_steps,
  /// step] — a server counts only once its heartbeat has been missing for
  /// the full window. Equals servers_down_at when lease_steps == 0. A
  /// closed-form min (not a stateful sampler), so both substrates and every
  /// rerun see the identical detection timeline.
  int detected_down_at(int step) const noexcept;

  /// Straggler multiplier on in-transit execution at `step` (>= 1; max of the
  /// active Straggler windows).
  double slowdown_at(int step) const noexcept;

 private:
  FaultConfig config_;
};

}  // namespace xl::runtime
