// The contracts layer: XL_ASSERT/XL_ENSURE mechanics (message + value
// capture, abort vs throw), the guarded numeric conversions, and the checked
// container accessors. The macro tests branch on xl::contracts_abort() so the
// same suite is valid in the default (throwing) build and the Debug/sanitizer
// XLAYER_CONTRACTS_ABORT build, where a violation must die, not unwind.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/lookup.hpp"

namespace xl {
namespace {

// --- XL_ASSERT / XL_ENSURE ---------------------------------------------------

TEST(Contract, PassingChecksAreSilent) {
  XL_ASSERT(1 + 1 == 2, "arithmetic");
  XL_ENSURE(true, "trivial");
  XL_ASSERT_DBG(true, "debug-only");
}

TEST(Contract, AssertCapturesMessageAndValues) {
  if (contracts_abort()) {
    EXPECT_DEATH(XL_ASSERT(false, "x=" << 42), "x=42");
    return;
  }
  try {
    const int x = 42;
    XL_ASSERT(x < 0, "x=" << x << " must be negative");
    FAIL() << "XL_ASSERT did not fire";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("x=42 must be negative"), std::string::npos) << what;
    EXPECT_NE(what.find("x < 0"), std::string::npos) << what;  // the expression
  }
}

TEST(Contract, EnsureReportsAsPostcondition) {
  if (contracts_abort()) {
    EXPECT_DEATH(XL_ENSURE(false, "broken"), "postcondition");
    return;
  }
  try {
    XL_ENSURE(false, "broken");
    FAIL() << "XL_ENSURE did not fire";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition"), std::string::npos);
  }
}

TEST(Contract, AssertDbgMatchesBuildMode) {
#if !defined(NDEBUG)
  if (contracts_abort()) {
    EXPECT_DEATH(XL_ASSERT_DBG(false, "active"), "active");
  } else {
    EXPECT_THROW(XL_ASSERT_DBG(false, "active"), InternalError);
  }
#else
  XL_ASSERT_DBG(false, "compiled out in Release");  // must not fire
#endif
}

// --- f2i / f2s ---------------------------------------------------------------

TEST(GuardedConversions, F2iMatchesStaticCastInRange) {
  // The whole point: in-range conversions are bit-identical to static_cast,
  // so the tree-wide rewrite cannot move a golden timeline.
  EXPECT_EQ(f2i<int>(3.9), 3);
  EXPECT_EQ(f2i<int>(-3.9), -3);  // C++ truncation toward zero
  EXPECT_EQ(f2i<int>(0.0), 0);
  // xl-lint: allow(float-cast): the raw cast IS the reference being tested
  EXPECT_EQ(f2s(12345.678), static_cast<std::size_t>(12345.678));
}

TEST(GuardedConversions, F2iClampsOutOfRange) {
  EXPECT_EQ(f2i<int>(1e30), std::numeric_limits<int>::max());
  EXPECT_EQ(f2i<int>(-1e30), std::numeric_limits<int>::min());
  EXPECT_EQ(f2i<std::int8_t>(1000.0), std::int8_t{127});
  EXPECT_EQ(f2s(-0.5), std::size_t{0});
  EXPECT_EQ(f2i<int>(std::numeric_limits<double>::infinity()),
            std::numeric_limits<int>::max());
}

TEST(GuardedConversions, F2iRejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (contracts_abort()) {
    EXPECT_DEATH(f2i<int>(nan), "NaN");
  } else {
    EXPECT_THROW(f2i<int>(nan), InternalError);
    EXPECT_THROW(f2s(nan), InternalError);
  }
}

// --- narrow ------------------------------------------------------------------

TEST(GuardedConversions, NarrowPreservesFittingValues) {
  EXPECT_EQ(narrow<std::int8_t>(127), std::int8_t{127});
  EXPECT_EQ(narrow<std::uint16_t>(std::size_t{65535}), std::uint16_t{65535});
  EXPECT_EQ(narrow<int>(std::int64_t{-5}), -5);
}

TEST(GuardedConversions, NarrowRejectsLossAndSignFlips) {
  if (contracts_abort()) {
    EXPECT_DEATH(narrow<std::int8_t>(128), "does not fit");
    return;
  }
  EXPECT_THROW(narrow<std::int8_t>(128), InternalError);
  EXPECT_THROW(narrow<std::uint32_t>(-1), InternalError);
  EXPECT_THROW(narrow<int>(std::size_t{1} << 40), InternalError);
}

// --- to_double ---------------------------------------------------------------

TEST(GuardedConversions, ToDoubleExactBelow2To53) {
  EXPECT_EQ(to_double(0), 0.0);
  EXPECT_EQ(to_double(std::size_t{1} << 52), std::ldexp(1.0, 52));
  EXPECT_EQ(to_double(-123456789), -123456789.0);
}

TEST(GuardedConversions, ToDoubleRejectsPrecisionLoss) {
  const std::uint64_t too_big = (std::uint64_t{1} << 53) + 1;
  if (contracts_abort()) {
    EXPECT_DEATH(to_double(too_big), "2\\^53");
  } else {
    EXPECT_THROW(to_double(too_big), InternalError);
  }
}

// --- parse_number ------------------------------------------------------------

TEST(ParseNumber, RejectsAnythingButOneWholeNumberNamingTheSource) {
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", "k"),
            std::numeric_limits<std::uint64_t>::max());
  const std::pair<const char*, const char*> bad[] = {
      {"abc", "--threads"}, {"2x", "--replication"}, {" 5", "steps"}, {"99999999999", "steps"}};
  for (const auto& [text, what] : bad) {
    try {
      parse_number<int>(text, what);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(parse_number<double>("1e999", "k"), ContractError);
}

// --- checked accessors -------------------------------------------------------

TEST(Lookup, MapAtReturnsMappedValue) {
  std::map<std::string, int> m{{"alpha", 1}, {"beta", 2}};
  EXPECT_EQ(map_at(m, std::string("beta"), "test map"), 2);
  map_at(m, std::string("alpha"), "test map") = 7;  // mutable overload
  EXPECT_EQ(m["alpha"], 7);
}

TEST(Lookup, MapAtNamesTheMissingKey) {
  const std::map<std::string, int> m{{"alpha", 1}};
  try {
    map_at(m, std::string("gamma"), "test map");
    FAIL() << "map_at did not throw";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test map"), std::string::npos) << what;
    EXPECT_NE(what.find("gamma"), std::string::npos) << what;
  }
}

TEST(Lookup, AtIndexBoundsChecks) {
  std::vector<int> v{10, 20, 30};
  EXPECT_EQ(at_index(v, 2, "test vec"), 30);
  at_index(v, 0, "test vec") = 11;
  EXPECT_EQ(v[0], 11);
  try {
    at_index(v, 3, "test vec");
    FAIL() << "at_index did not throw";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index 3"), std::string::npos) << what;
    EXPECT_NE(what.find("size 3"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace xl
