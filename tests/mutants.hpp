// Seeded mutants of a valid input, shared by the tests of the input surfaces
// (plotfile, config file, fault spec). Each mutant must parse, or be rejected
// with an xl::ContractError that reads as an input error: a message about the
// input, not a check's C++ expression or source location. Any other
// exception fails the test, and a crash fails it outright.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xl::mutants {

/// Mutants per input surface.
constexpr int kCount = 2000;

/// A uniform index into a non-empty `s`.
inline std::size_t pick(const std::string& s, Rng& rng) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
}

/// One of `options`, uniformly.
template <typename T, std::size_t N>
T pick(const T (&options)[N], Rng& rng) {
  return options[rng.uniform_int(0, static_cast<std::int64_t>(N) - 1)];
}

/// Truncates `s`, or flips one of its bits. Returns false for neither.
inline bool truncate_or_flip(std::string& s, Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      s.resize(pick(s, rng));
      return true;
    case 1:
      s[pick(s, rng)] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      return true;
    default:
      return false;
  }
}

/// `s` truncated, with one bit flipped, with a 4-byte-aligned field set to an
/// int32 extreme, with up to 16 bytes overwritten by junk, or with up to 16
/// junk bytes appended.
inline std::string binary(std::string s, Rng& rng) {
  if (truncate_or_flip(s, rng)) return s;
  const std::size_t at = pick(s, rng);
  const auto mutation = rng.uniform_int(0, 2);
  if (mutation == 0) {
    constexpr std::int32_t kExtremes[] = {std::numeric_limits<std::int32_t>::min(), -1, 0, 1,
                                          std::numeric_limits<std::int32_t>::max()};
    const std::int32_t v = pick(kExtremes, rng);
    const std::size_t field = at / 4 * 4;
    std::memcpy(s.data() + field, &v, std::min(sizeof v, s.size() - field));
  } else if (mutation == 1) {
    const auto n = std::min(s.size() - at, static_cast<std::size_t>(rng.uniform_int(1, 16)));
    for (std::size_t i = 0; i < n; ++i) s[at + i] = static_cast<char>(rng.next_u64());
  } else {
    const auto n = rng.uniform_int(1, 16);
    for (std::int64_t i = 0; i < n; ++i) s.push_back(static_cast<char>(rng.next_u64()));
  }
  return s;
}

/// `s` truncated, with one bit flipped, with a run of digits replaced by an
/// int32 extreme (or a neighbour past it), or with a field (a run between the
/// separators " =;:\n") replaced by junk.
inline std::string text(std::string s, Rng& rng) {
  if (truncate_or_flip(s, rng)) return s;
  constexpr const char* kDigits = "0123456789";
  constexpr const char* kSeparators = " =;:\n";
  const std::size_t from = pick(s, rng);
  if (rng.uniform_int(0, 1) == 0) {
    constexpr const char* kExtremes[] = {"2147483647", "-2147483648", "2147483648",
                                         "-2147483649", "0", "-1", "18446744073709551616"};
    std::size_t at = s.find_first_of(kDigits, from);
    if (at == std::string::npos) at = s.find_first_of(kDigits);
    if (at != std::string::npos) {
      s.replace(at, s.find_first_not_of(kDigits, at) - at, pick(kExtremes, rng));
    }
  } else {
    constexpr const char* kJunk[] = {"",      "nan", "-inf", "1e999", "0x10", "--1",
                                     "1.5.2", "abc", "=",    ";",     ":",    "1:2:3:4",
                                     "#",     "\t",  "\x01\xff"};
    std::size_t at = s.find_first_not_of(kSeparators, from);
    if (at == std::string::npos) at = s.find_first_not_of(kSeparators);
    if (at != std::string::npos) {
      s.replace(at, s.find_first_of(kSeparators, at) - at, pick(kJunk, rng));
    }
  }
  return s;
}

/// Feeds `good`, which must parse, and then kCount mutants of it, made by
/// `mutate` from an Rng seeded with `seed`, to `parse`. Fails for each check
/// whose internal message reaches the caller, for any exception other than
/// ContractError, and unless some mutants parse and some are rejected.
inline void expect_parse_or_input_error(
    const std::string& good, std::uint64_t seed,
    const std::function<std::string(std::string, Rng&)>& mutate,
    const std::function<void(const std::string&)>& parse) {
  ASSERT_NO_THROW(parse(good));
  Rng rng(seed);
  int parsed = 0;
  std::set<std::string> leaks;  // each leaking check once, by expression and location
  for (int i = 0; i < kCount; ++i) {
    const std::string mutant = mutate(good, rng);
    try {
      parse(mutant);
      ++parsed;
    } catch (const ContractError& e) {
      const std::string what = e.what();
      if (what.find("precondition failed") != std::string::npos ||
          what.find(".cpp:") != std::string::npos) {
        leaks.insert(what.substr(0, what.find(" -- ")));
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-input error: " << e.what();
    }
  }
  std::string listed;
  for (const std::string& leak : leaks) listed += "\n  " + leak;
  EXPECT_TRUE(leaks.empty()) << "input errors leaking an internal check:" << listed;
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kCount);
}

}  // namespace xl::mutants
