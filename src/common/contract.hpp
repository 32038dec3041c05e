// Contract layer: machine-checked invariants and guarded numeric conversions.
//
// Builds on common/error.hpp (which owns XL_REQUIRE / XL_CHECK, the always-on
// throwing precondition/invariant macros) and adds:
//
//   XL_ASSERT(cond, msg)  -- internal invariant with stream-style message and
//                            value capture: XL_ASSERT(a <= b, "a=" << a).
//                            Aborts with the full message when compiled with
//                            XLAYER_CONTRACTS_ABORT (Debug / sanitizer
//                            builds), throws xl::InternalError otherwise.
//   XL_ENSURE(cond, msg)  -- postcondition, same mechanics as XL_ASSERT.
//   XL_ASSERT_DBG(...)    -- expensive check, compiled out when NDEBUG is
//                            defined (Release).
//
// Guarded conversions (the static-analysis gate bans raw float->int casts;
// these are the sanctioned replacements -- identical to static_cast for
// in-range values, so bit-identical goldens are preserved):
//
//   xl::f2i<To>(v)   -- double -> integral: NaN is a contract violation,
//                       out-of-range clamps to To's limits (the Histogram
//                       fix from the threading PR, generalized).
//   xl::f2s(v)       -- shorthand for f2i<std::size_t>.
//   xl::narrow<To>(v)-- integral -> integral: value-preserving or violation.
//   xl::to_double(v) -- integral -> double: exact below 2^53 or violation.
//
// And the one text -> number conversion of every input surface (config file,
// fault spec, CLI flags):
//
//   xl::parse_number<T>(text, what) -- the whole of `text` as a T, or an
//                       xl::ContractError naming `what`.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/error.hpp"

namespace xl {

/// True when contract failures abort instead of throwing (Debug / sanitizer
/// builds set XLAYER_CONTRACTS_ABORT so the failure stops exactly at the
/// broken invariant with the stack intact).
constexpr bool contracts_abort() noexcept {
#if defined(XLAYER_CONTRACTS_ABORT)
  return true;
#else
  return false;
#endif
}

namespace detail {

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
#if defined(XLAYER_CONTRACTS_ABORT)
  std::fprintf(stderr, "xl: %s failed: (%s) at %s:%d -- %s\n", kind, expr, file,
               line, msg.c_str());
  std::abort();
#else
  throw_failure<InternalError>(kind, expr, file, line, msg);
#endif
}

}  // namespace detail

/// Checked float -> integral conversion. NaN violates the contract; values
/// outside To's range clamp to the nearest representable limit; everything
/// in range converts exactly as static_cast would (C++ truncation toward
/// zero), so swapping a raw cast for f2i never changes an in-range result.
template <typename To, typename From>
To f2i(From value, const char* what = "float->int") {
  static_assert(std::is_integral_v<To> && std::is_floating_point_v<From>);
  if (std::isnan(value)) {
    detail::contract_fail("guarded conversion", "!isnan(value)", what, 0,
                          "NaN cannot be converted to an integer");
  }
  // The limits are converted through From so the comparisons are exact even
  // when To's max is not representable (uint64 in double rounds up to 2^64,
  // which correctly sends only genuinely out-of-range values to the clamp).
  const From lo = static_cast<From>(std::numeric_limits<To>::min());
  const From hi = static_cast<From>(std::numeric_limits<To>::max());
  if (value <= lo) return std::numeric_limits<To>::min();
  if (value >= hi) return std::numeric_limits<To>::max();
  return static_cast<To>(value);
}

/// Checked float -> size_t (byte and cell arithmetic): negative clamps to 0.
template <typename From>
std::size_t f2s(From value, const char* what = "float->size_t") {
  return f2i<std::size_t>(value, what);
}

/// Checked integral -> integral narrowing: the value must survive the round
/// trip (gsl::narrow semantics); anything else is a contract violation, not a
/// silent wrap.
template <typename To, typename From>
To narrow(From value, const char* what = "narrow") {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>);
  const To result = static_cast<To>(value);
  const bool sign_flip =
      (std::is_signed_v<From> != std::is_signed_v<To>) && ((value < From{}) != (result < To{}));
  if (static_cast<From>(result) != value || sign_flip) {
    std::ostringstream os;
    os << "value " << +value << " does not fit the target type (" << what << ")";
    detail::contract_fail("guarded conversion", "narrow", what, 0, os.str());
  }
  return result;
}

/// Checked integral -> double: exact for |v| <= 2^53 (every cell count and
/// byte size this library produces); larger magnitudes would silently lose
/// precision in the eq. 7-10 estimators, so they violate the contract.
template <typename From>
double to_double(From value, const char* what = "int->double") {
  static_assert(std::is_integral_v<From>);
  constexpr std::uint64_t kExact = 1ull << 53;
  const bool exact = value < From{} ? static_cast<std::uint64_t>(-(value + From{1})) < kExact
                                    : static_cast<std::uint64_t>(value) <= kExact;
  if (!exact) {
    std::ostringstream os;
    os << "value " << +value << " exceeds 2^53; double would lose precision (" << what
       << ")";
    detail::contract_fail("guarded conversion", "to_double", what, 0, os.str());
  }
  return static_cast<double>(value);
}

/// Parse all of `text` as a T. std::from_chars stops at the first character
/// it cannot use, so "2x", "0.05zz" and "2.5" (for an integer) are rejected
/// instead of parsing their prefix; unsigned types reject a sign rather than
/// wrapping "-1" to 2^64-1; out-of-range values and, for floating-point T,
/// nan and inf are rejected too. Errors name `what`: the key, flag or clause
/// the text came from.
template <typename T>
T parse_number(std::string_view text, std::string_view what) {
  static_assert(std::is_arithmetic_v<T>);
  const auto fail = [&](const char* problem) {
    throw ContractError(std::string(what) + ": " + problem + " '" + std::string(text) + "'");
  };
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc::result_out_of_range) fail("number out of range");
  if (ec != std::errc() || ptr != end) fail("bad number");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(out)) fail("needs a finite number, got");
  }
  return out;
}

}  // namespace xl

/// Internal invariant with value capture: XL_ASSERT(i < n, "i=" << i).
#define XL_ASSERT(cond, msg)                                                  \
  do {                                                                        \
    if (!(cond)) {                                                            \
      std::ostringstream xl_assert_os_;                                       \
      xl_assert_os_ << msg;                                                   \
      ::xl::detail::contract_fail("invariant", #cond, __FILE__, __LINE__,     \
                                  xl_assert_os_.str());                       \
    }                                                                         \
  } while (0)

/// Postcondition with value capture, same failure mechanics as XL_ASSERT.
#define XL_ENSURE(cond, msg)                                                  \
  do {                                                                        \
    if (!(cond)) {                                                            \
      std::ostringstream xl_ensure_os_;                                       \
      xl_ensure_os_ << msg;                                                   \
      ::xl::detail::contract_fail("postcondition", #cond, __FILE__, __LINE__, \
                                  xl_ensure_os_.str());                       \
    }                                                                         \
  } while (0)

/// Expensive invariant: active in Debug, compiled out -- unevaluated -- in
/// Release.
#if !defined(NDEBUG)
#define XL_ASSERT_DBG(cond, msg) XL_ASSERT(cond, msg)
#else
#define XL_ASSERT_DBG(cond, msg) \
  do {                           \
    (void)sizeof(!(cond));       \
  } while (0)
#endif
