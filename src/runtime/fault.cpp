#include "runtime/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace xl::runtime {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::None: return "";
    case FaultKind::ServerCrash: return "server-crash";
    case FaultKind::TransferDrop: return "transfer-drop";
    case FaultKind::TransferCorrupt: return "transfer-corrupt";
    case FaultKind::Straggler: return "straggler";
  }
  return "?";
}

std::optional<FaultKind> FaultPlan::transfer_attempt_fault(std::uint64_t transfer,
                                                           int attempt) const {
  const double drop = config_.transfer_drop_rate;
  const double corrupt = config_.transfer_corrupt_rate;
  if (drop + corrupt <= 0.0) return std::nullopt;
  // Counter-keyed stream: one fresh Rng per (transfer, attempt) pair, so the
  // draw is independent of how many other transfers were queried before it.
  Rng rng(config_.seed ^ (transfer * 0xD1342543DE82EF95ull) ^
          ((static_cast<std::uint64_t>(attempt) + 1) * 0x9E3779B97F4A7C15ull));
  const double u = rng.next_double();
  if (u < drop) return FaultKind::TransferDrop;
  if (u < drop + corrupt) return FaultKind::TransferCorrupt;
  return std::nullopt;
}

namespace {

bool window_active(const FaultSpec& spec, int step) noexcept {
  if (step < spec.step) return false;
  // Subtract: spec.step + duration_steps can overflow an int.
  return spec.duration_steps == 0 || step - spec.step < spec.duration_steps;
}

}  // namespace

int FaultPlan::servers_down_at(int step) const noexcept {
  // Each clause may name up to INT_MAX servers, so the sum is 64-bit and
  // saturates; the pipeline clamps it to staging_cores.
  std::int64_t down = 0;
  for (const FaultSpec& spec : config_.events) {
    if (spec.kind == FaultKind::ServerCrash && window_active(spec, step)) {
      down += spec.servers;
    }
  }
  return static_cast<int>(std::min<std::int64_t>(down, std::numeric_limits<int>::max()));
}

int FaultPlan::detected_down_at(int step) const noexcept {
  if (config_.lease_steps <= 0) return servers_down_at(step);
  // A server is declared dead only after missing every heartbeat in the
  // trailing lease window: the min over the window. Steps before 0 have no
  // crashes (window_active is false for step < spec.step), so the min over a
  // window reaching below 0 is 0 — a fresh run starts with nothing declared.
  int declared = servers_down_at(step);
  for (int u = step - config_.lease_steps; u < step; ++u) {
    if (u < 0) return 0;
    const int down = servers_down_at(u);
    if (down < declared) declared = down;
    if (declared == 0) return 0;
  }
  return declared;
}

double FaultPlan::slowdown_at(int step) const noexcept {
  double slowdown = 1.0;
  for (const FaultSpec& spec : config_.events) {
    if (spec.kind == FaultKind::Straggler && window_active(spec, step) &&
        spec.slowdown > slowdown) {
      slowdown = spec.slowdown;
    }
  }
  return slowdown;
}

namespace {

/// Largest straggler SLOW: with the config's caps on cores, flops and cells,
/// every slowed in-transit time stays finite.
constexpr int kMaxSlowdown = 1000000;

/// Largest `retries`: every transfer walks its retry ladder attempt by
/// attempt, at a cost quadratic in the attempts, so an uncapped count keeps a
/// short run spinning. Every test, config and doc uses 5 or fewer.
constexpr int kMaxRetries = 100;

/// The clause a spec field came from, as parse errors name it.
std::string clause_name(const std::string& clause) { return "fault spec: '" + clause + "'"; }

/// A finite real no smaller than `min`.
double spec_double(const std::string& v, const std::string& clause, double min) {
  const double out = parse_number<double>(v, clause_name(clause));
  if (out < min) {
    std::ostringstream msg;
    msg << clause_name(clause) << " needs a finite value >= " << min;
    throw ContractError(msg.str());
  }
  return out;
}

/// An integer no smaller than `min`.
int spec_int(const std::string& v, const std::string& clause, int min) {
  const int out = parse_number<int>(v, clause_name(clause));
  if (out < min) {
    throw ContractError(clause_name(clause) + " needs an integer >= " + std::to_string(min));
  }
  return out;
}

/// Split "a:b:c" into up to three fields (later ones optional).
std::vector<std::string> split_fields(const std::string& value) {
  std::vector<std::string> fields;
  std::istringstream ss(value);
  std::string field;
  while (std::getline(ss, field, ':')) fields.push_back(field);
  return fields;
}

}  // namespace

FaultConfig parse_fault_spec(const std::string& spec) {
  FaultConfig config;
  std::istringstream ss(spec);
  std::string clause;
  while (std::getline(ss, clause, ';')) {
    if (clause.empty()) continue;
    const auto eq = clause.find('=');
    if (eq == std::string::npos) {
      throw ContractError("fault spec: expected key=value in '" + clause + "'");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (value.empty()) throw ContractError("fault spec: empty value in '" + clause + "'");

    if (key == "seed") {
      config.seed = parse_number<std::uint64_t>(value, clause_name(clause));
    } else if (key == "drop" || key == "corrupt") {
      const double rate = spec_double(value, clause, 0.0);
      if (rate > 1.0) {
        throw ContractError(clause_name(clause) + " needs a rate in [0, 1]");
      }
      (key == "drop" ? config.transfer_drop_rate : config.transfer_corrupt_rate) = rate;
    } else if (key == "retries") {
      config.max_transfer_retries = spec_int(value, clause, 0);
      if (config.max_transfer_retries > kMaxRetries) {
        throw ContractError(clause_name(clause) + " needs an integer <= " +
                            std::to_string(kMaxRetries));
      }
    } else if (key == "backoff") {
      config.retry_backoff_seconds = spec_double(value, clause, 0.0);
    } else if (key == "backoff_mult") {
      config.backoff_multiplier = spec_double(value, clause, 1.0);
    } else if (key == "timeout") {
      config.transfer_timeout_seconds = spec_double(value, clause, 0.0);
    } else if (key == "lease") {
      config.lease_steps = spec_int(value, clause, 0);
    } else if (key == "crash" || key == "straggler") {
      const auto fields = split_fields(value);
      if (fields.empty() || fields.size() > 3) {
        throw ContractError("fault spec: '" + clause + "' takes STEP[:ARG[:DURATION]]");
      }
      FaultSpec fault;
      fault.step = spec_int(fields[0], clause, 0);
      if (key == "crash") {
        fault.kind = FaultKind::ServerCrash;
        if (fields.size() > 1) fault.servers = spec_int(fields[1], clause, 1);
      } else {
        fault.kind = FaultKind::Straggler;
        if (fields.size() > 1) fault.slowdown = spec_double(fields[1], clause, 1.0);
        if (fault.slowdown > kMaxSlowdown) {
          throw ContractError(clause_name(clause) + " needs a slowdown <= " +
                              std::to_string(kMaxSlowdown));
        }
      }
      if (fields.size() > 2) fault.duration_steps = spec_int(fields[2], clause, 0);
      config.events.push_back(fault);
    } else {
      throw ContractError("fault spec: unknown key '" + key + "'");
    }
  }
  // The clauses pass one by one above; together they must still keep the
  // last retry's backoff finite, or a run would abort deep in the clock.
  const double last_backoff = config.retry_backoff_seconds *
                              std::pow(config.backoff_multiplier, config.max_transfer_retries);
  if (config.retry_backoff_seconds > 0.0 && !std::isfinite(last_backoff)) {
    std::ostringstream msg;
    msg << "fault spec: 'backoff=" << config.retry_backoff_seconds << "', 'backoff_mult="
        << config.backoff_multiplier << "' and 'retries=" << config.max_transfer_retries
        << "' make the last backoff (backoff * backoff_mult^retries) infinite";
    throw ContractError(msg.str());
  }
  return config;
}

}  // namespace xl::runtime
