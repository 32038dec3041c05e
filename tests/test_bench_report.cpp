// Tests for the gate benches' shared report (bench/report.hpp): JSON that is
// valid by construction, and the exit-status rules of invariant and
// threshold gates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "report.hpp"

namespace xl::bench {
namespace {

TEST(BenchRecord, EscapesStringsAndNullsNonFiniteNumbers) {
  const std::string line = Record()
                               .set("label", "a \"quoted\" \\ path\n\t\x01")
                               .set("inf", std::numeric_limits<double>::infinity())
                               .set("nan", std::nan(""))
                               .set("half", 0.5)
                               .set("count", std::size_t{42})
                               .set("flag", true)
                               .str();
  EXPECT_EQ(line,
            "{\"label\": \"a \\\"quoted\\\" \\\\ path\\u000a\\u0009\\u0001\", "
            "\"inf\": null, \"nan\": null, \"half\": 0.5, \"count\": 42, \"flag\": true}");
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

int finish_with(bool check, bool invariant_passed, bool threshold_passed,
                const std::string& json_path = "") {
  GateFlags flags;
  flags.check = check;
  flags.json_path = json_path;
  Report report("unit", flags);
  report.invariant("identity", invariant_passed, "outputs differ");
  report.threshold("speedup", threshold_passed, "too slow");
  return report.finish("all gates hold");
}

TEST(BenchReport, InvariantsFailWithOrWithoutCheck) {
  EXPECT_EQ(finish_with(false, false, true), 1);
  EXPECT_EQ(finish_with(true, false, true), 1);
}

TEST(BenchReport, ThresholdsFailOnlyUnderCheck) {
  EXPECT_EQ(finish_with(false, true, false), 0);
  EXPECT_EQ(finish_with(true, true, false), 1);
  EXPECT_EQ(finish_with(true, true, true), 0);
}

TEST(BenchReport, JsonCarriesTheEnvelopeThenTheBenchRecords) {
  const std::string path = "test_bench_report.json";
  GateFlags flags;
  flags.quick = true;
  flags.json_path = path;
  Report report("unit", flags);
  report.set("steps", 3);
  report.add("cases", Record().set("case", "a"));
  report.add("cases", Record().set("case", "b"));
  report.threshold("speedup", false, "too slow");
  ASSERT_EQ(report.finish("unused"), 0);  // the threshold is not enforced
  EXPECT_EQ(read_file(path),
            "{\n"
            "  \"bench\": \"unit\",\n"
            "  \"quick\": true,\n"
            "  \"ok\": true,\n"
            "  \"gates\": [\n"
            "    {\"name\": \"speedup\", \"kind\": \"threshold\", \"enforced\": false, "
            "\"passed\": false}\n"
            "  ],\n"
            "  \"steps\": 3,\n"
            "  \"cases\": [\n"
            "    {\"case\": \"a\"},\n"
            "    {\"case\": \"b\"}\n"
            "  ]\n"
            "}\n");
  std::remove(path.c_str());
}

TEST(BenchReport, UnwritableReportFailsTheRun) {
  EXPECT_EQ(finish_with(false, true, true, "no/such/dir/report.json"), 1);
}

}  // namespace
}  // namespace xl::bench
