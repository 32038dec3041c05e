// Checks of the benchmark's own arithmetic: the percentile rule, self time
// under overlapping children, the best-repeat selection, and the output
// digest. Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_rule() {
  // Ten samples beyond p90 need 100 samples; 99 support only p75.
  expect(highest_supported_percentile(100) == 90.0, "n=100 supports p90");
  expect(highest_supported_percentile(99) == 75.0, "n=99 falls back to p75");
  expect(highest_supported_percentile(199) == 90.0, "n=199 falls back to p90");
  expect(highest_supported_percentile(200) == 95.0, "n=200 supports p95");
  expect(highest_supported_percentile(1000) == 99.0, "n=1000 supports p99");
  expect(highest_supported_percentile(10000) == 99.9, "n=10000 supports p99.9");
  expect(highest_supported_percentile(19) == 50.0, "n=19 supports only the median");
  expect(highest_supported_percentile(0) == 50.0, "no samples: median");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(near(percentile(v, 50.0), 50.5), "median of 1..100 is 50.5");
  expect(near(percentile(v, 90.0), 90.1), "p90 of 1..100 interpolates to 90.1");
  expect(near(percentile(v, 0.0), 1.0) && near(percentile(v, 100.0), 100.0), "extremes");
  expect(percentile({}, 50.0) == 0.0, "empty input gives 0");
  expect(near(median({3.0}), 3.0), "single sample");
}

void self_time_overlap() {
  // parent [0,10]; children [1,4] and [3,6] overlap (union 1..6 = 5 s);
  // child [8,12] spills past the parent (covers 8..10 = 2 s); a grandchild
  // inside the first child must not count against the parent.
  std::vector<Span> spans = {
      {"parent", 0.0, 10.0, -1, 0, 1}, {"a", 1.0, 4.0, 0, 0, 2},
      {"b", 3.0, 6.0, 0, 0, 2},        {"c", 8.0, 12.0, 0, 0, 2},
      {"a.inner", 2.0, 3.0, 1, 0, 2},
  };
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 3.0), "parent self = 10 - union(1..6, 8..10)");
  expect(near(self[1], 2.0), "child self excludes its own child");
  expect(near(self[2], 3.0), "leaf self = duration");
  expect(near(self[3], 4.0), "spilling leaf keeps its full duration");

  const auto totals = layer_totals(spans);
  expect(totals.at("parent").calls == 1 && near(totals.at("parent").total_s, 10.0),
         "totals sum durations");
  expect(near(totals.at("parent").self_s, 3.0), "totals sum self times");

  // Identical overlapping children collapse to one interval.
  std::vector<Span> dup = {{"p", 0.0, 5.0, -1, 0, 1}, {"x", 1.0, 2.0, 0, 0, 1},
                           {"x", 1.0, 2.0, 0, 0, 1}};
  expect(near(self_times(dup)[0], 4.0), "duplicate children count once");
}

void best_repeat_selection() {
  // Kinds 0,1,0,1: unit u has walls[u] and steps {s0, s1}; a traced unit's
  // step sits between untraced units and belongs to none.
  RunResult rr;
  const double walls[] = {4.0, 3.0, 2.0, 5.0};
  const double steps[][2] = {{10.0, 7.0}, {30.0, 31.0}, {8.0, 9.0}, {29.0, 40.0}};
  for (int u = 0; u < 4; ++u) {
    const std::size_t begin = rr.step_ms.size();
    rr.step_ms.push_back(steps[u][0]);
    rr.step_ms.push_back(steps[u][1]);
    rr.wall_s.push_back(walls[u]);
    rr.unit_steps.emplace_back(begin, rr.step_ms.size());
    rr.unit_kinds.push_back(u % 2);
    rr.step_ms.push_back(-1.0);
  }
  const BestRepeats best = best_repeats(rr);
  expect(best.wall_s == std::vector<double>({2.0, 3.0}), "fastest unit of each kind");
  expect(best.step_ms == std::vector<double>({8.0, 9.0, 30.0, 31.0}),
         "the steps of each kind's fastest unit, as that unit took them");

  RunResult one;
  one.wall_s = {7.0};
  one.step_ms = {1.0, 2.0};
  one.unit_steps = {{0, 2}};
  one.unit_kinds = {0};
  expect(best_repeats(one).step_ms == std::vector<double>({1.0, 2.0}), "a single repeat as is");
  expect(best_repeats(RunResult{}).wall_s.empty(), "no units, nothing kept");
}

void digest_stability() {
  // FNV-1a 64 reference values.
  expect(digest("") == "cbf29ce484222325", "digest of empty input");
  expect(digest("a") == "af63dc4c8601ec8c", "digest of \"a\"");
  const std::string csv = "kind,step,sim_clock\nstep-begin,0,0.5\n";
  expect(digest(csv) == digest(std::string(csv)), "digest is a pure function of the bytes");
  expect(digest(csv) != digest(csv + " "), "digest sees a trailing byte");

  // The seeded input generator reruns identically.
  SplitMix a(42), b(42);
  bool same = true;
  for (int i = 0; i < 100; ++i) same = same && a.next() == b.next();
  expect(same, "SplitMix reruns identically");
  expect(SplitMix(0).next() == 0xe220a8397b1dcdafull, "SplitMix64 reference value");
}

}  // namespace

int main() {
  percentile_rule();
  self_time_overlap();
  best_repeat_selection();
  digest_stability();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
