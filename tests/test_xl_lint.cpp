// Per-rule fixtures for the determinism-contract linter: for every rule, a
// bad snippet is flagged, the same snippet with a suppression passes, and a
// clean rewrite passes. The snippets live in raw strings, which the linter's
// lexer drops, so this file itself stays clean under the xl_lint.tree_clean
// gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "xl_lint/lint.hpp"
#include "xl_lint/report.hpp"

namespace xl::lint {
namespace {

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(std::count_if(
      findings.begin(), findings.end(),
      [&](const Finding& f) { return f.rule == rule; }));
}

// --- wallclock ---------------------------------------------------------------

TEST(Wallclock, BadFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <chrono>
double now() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
)cpp");
  EXPECT_EQ(count_rule(f, "wallclock"), 1);
  EXPECT_EQ(f[0].line, 3);
}

TEST(Wallclock, SuppressedPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(wallclock): measurement-only diagnostic
auto t = std::chrono::steady_clock::now();
)cpp");
  EXPECT_EQ(count_rule(f, "wallclock"), 0);
}

TEST(Wallclock, CleanPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
double now(const Timeline& tl) { return tl.sim_now(); }
)cpp");
  EXPECT_EQ(count_rule(f, "wallclock"), 0);
}

TEST(Wallclock, RngHeaderExempt) {
  const auto f = lint_text("src/common/rng.hpp",
                           "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(count_rule(f, "wallclock"), 0);
}

// --- raw-random --------------------------------------------------------------

TEST(RawRandom, BadFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <random>
int roll() { std::mt19937 gen(std::random_device{}()); return rand(); }
)cpp");
  EXPECT_GE(count_rule(f, "raw-random"), 1);
}

TEST(RawRandom, SuppressedPasses) {
  const auto f = lint_text(
      "src/foo.cpp",
      "std::mt19937 gen(7);  // xl-lint: allow(raw-random): fixture only\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 0);
}

TEST(RawRandom, CleanPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include "common/rng.hpp"
double draw(xl::Rng& rng) { return rng.uniform(); }
)cpp");
  EXPECT_EQ(count_rule(f, "raw-random"), 0);
}

TEST(RawRandom, IdentifierBoundariesRespected) {
  // `brand(` and `operand(x)` must not match the C rand() pattern.
  const auto f = lint_text("src/foo.cpp", "int a = brand(); int b = operand(2);\n");
  EXPECT_EQ(count_rule(f, "raw-random"), 0);
}

// --- unordered-iter ----------------------------------------------------------

constexpr const char* kUnorderedIter = R"cpp(
#include <unordered_map>
double total(const std::unordered_map<int, double>& costs) {
  double t = 0.0;
  for (const auto& kv : costs) t += kv.second;
  return t;
}
)cpp";

TEST(UnorderedIter, BadFlaggedInScopedLayers) {
  EXPECT_EQ(count_rule(lint_text("src/runtime/foo.cpp", kUnorderedIter),
                       "unordered-iter"),
            1);
  EXPECT_EQ(count_rule(lint_text("src/cluster/foo.cpp", kUnorderedIter),
                       "unordered-iter"),
            1);
  EXPECT_EQ(count_rule(lint_text("src/workflow/foo.cpp", kUnorderedIter),
                       "unordered-iter"),
            1);
}

TEST(UnorderedIter, OutOfScopeLayersPass) {
  // Order only matters where accumulation reaches the timeline; viz is free
  // to iterate hash order, so the iteration itself passes and only the
  // hash-ordered float sum escaping the loop is reported.
  const auto f = lint_text("src/viz/foo.cpp", kUnorderedIter);
  ASSERT_EQ(count_rule(f, "unordered-iter"), 1);
  EXPECT_NE(f[0].message.find("accumulates into float 't'"), std::string::npos);
}

TEST(UnorderedIter, ExplicitBeginFlagged) {
  const auto f = lint_text("src/runtime/foo.cpp", R"cpp(
std::unordered_set<int> pending;
void drain() { for (auto it = pending.begin(); it != pending.end(); ++it) {} }
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 1);
}

TEST(UnorderedIter, SuppressedPasses) {
  const auto f = lint_text("src/runtime/foo.cpp", R"cpp(
std::unordered_map<int, double> costs;
// xl-lint: allow(unordered-iter): keys are copied out and sorted below
for (const auto& kv : costs) keys.push_back(kv.first);
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 0);
}

TEST(UnorderedIter, OrderedContainerPasses) {
  const auto f = lint_text("src/runtime/foo.cpp", R"cpp(
#include <map>
double total(const std::map<int, double>& costs) {
  double t = 0.0;
  for (const auto& kv : costs) t += kv.second;
  return t;
}
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 0);
}

TEST(UnorderedIter, RuntimeLayerGivesExactlyOneFinding) {
  // In src/runtime (and cluster/workflow) every iteration is a finding, so a
  // loop that also escapes (a float sum) is reported once, not twice.
  const auto f = lint_text("src/runtime/foo.cpp", R"cpp(
#include <unordered_map>
double total(const std::unordered_map<int, double>& costs) {
  double t = 0.0;
  for (const auto& kv : costs) t += kv.second;
  return t;
}
)cpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
}

// --- float-cast --------------------------------------------------------------

TEST(FloatCast, BadFlagged) {
  const auto f = lint_text("src/foo.cpp",
                           "int n = static_cast<int>(1.5 * scale);\n");
  EXPECT_EQ(count_rule(f, "float-cast"), 1);
}

TEST(FloatCast, MathCallFlagged) {
  const auto f = lint_text(
      "src/foo.cpp", "auto k = static_cast<std::size_t>(std::floor(x));\n");
  EXPECT_EQ(count_rule(f, "float-cast"), 1);
}

TEST(FloatCast, SuppressedPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(float-cast): value clamped to [0,255] on the previous line
auto b = static_cast<uint8_t>(v * 255.0);
)cpp");
  EXPECT_EQ(count_rule(f, "float-cast"), 0);
}

TEST(FloatCast, GuardedConversionPasses) {
  const auto f = lint_text("src/foo.cpp",
                           "std::size_t n = xl::f2s(1.5 * scale);\n");
  EXPECT_EQ(count_rule(f, "float-cast"), 0);
}

TEST(FloatCast, IntegerToIntegerCastPasses) {
  const auto f = lint_text("src/foo.cpp",
                           "int n = static_cast<int>(count + offset);\n");
  EXPECT_EQ(count_rule(f, "float-cast"), 0);
}

// --- parallel-merge ----------------------------------------------------------

TEST(ParallelMerge, BadFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
parallel_for(pool, 0, n, [&](std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) out.push_back(i);
});
)cpp");
  EXPECT_EQ(count_rule(f, "parallel-merge"), 1);
}

TEST(ParallelMerge, ChunkedBodyFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
parallel_for_chunks(n, chunks, [&](std::size_t c, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) out.push_back(i);
});
)cpp");
  EXPECT_EQ(count_rule(f, "parallel-merge"), 1);
}

TEST(ParallelMerge, SuppressedPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(parallel-merge): guarded by results_mutex_, order irrelevant
parallel_for(pool, 0, n, [&](std::size_t lo, std::size_t hi) {
  out.push_back(lo);
});
)cpp");
  EXPECT_EQ(count_rule(f, "parallel-merge"), 0);
}

TEST(ParallelMerge, LocalContainerPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
parallel_for(pool, 0, n, [&](std::size_t lo, std::size_t hi) {
  std::vector<int> local;
  for (std::size_t i = lo; i < hi; ++i) local.push_back(static_cast<int>(i));
});
)cpp");
  EXPECT_EQ(count_rule(f, "parallel-merge"), 0);
}

TEST(ParallelMerge, DeclarationPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body);
)cpp");
  EXPECT_EQ(count_rule(f, "parallel-merge"), 0);
}

// --- missing-include ---------------------------------------------------------

TEST(MissingInclude, BadFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
double norm(double x) { return std::sqrt(x); }
)cpp");
  EXPECT_EQ(count_rule(f, "missing-include"), 1);
}

TEST(MissingInclude, SuppressedPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(missing-include): header comes in via the PCH
double norm(double x) { return std::sqrt(x); }
)cpp");
  EXPECT_EQ(count_rule(f, "missing-include"), 0);
}

TEST(MissingInclude, IncludedPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <cmath>
double norm(double x) { return std::sqrt(x); }
)cpp");
  EXPECT_EQ(count_rule(f, "missing-include"), 0);
}

// --- banned-symbol -----------------------------------------------------------

TEST(BannedSymbol, BadFlagged) {
  const auto f = lint_text("src/foo.cpp",
                           "const char* v = std::getenv(name);\n");
  EXPECT_EQ(count_rule(f, "banned-symbol"), 1);
}

TEST(BannedSymbol, SleepFlagged) {
  const auto f = lint_text(
      "src/foo.cpp", "std::this_thread::sleep_for(std::chrono::seconds(1));\n");
  EXPECT_EQ(count_rule(f, "banned-symbol"), 1);
}

TEST(BannedSymbol, SuppressedPasses) {
  const auto f = lint_text(
      "src/foo.cpp",
      "const char* v = std::getenv(name);  // xl-lint: allow(banned-symbol): "
      "sanctioned escape hatch\n");
  EXPECT_EQ(count_rule(f, "banned-symbol"), 0);
}

TEST(BannedSymbol, CleanPasses) {
  const auto f = lint_text("src/foo.cpp",
                           "int threads = config.threads;  // via config layer\n");
  EXPECT_EQ(count_rule(f, "banned-symbol"), 0);
}

// --- fab-by-value ------------------------------------------------------------

TEST(FabByValue, BadFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
void stage(int version, Fab payload);
)cpp");
  EXPECT_EQ(count_rule(f, "fab-by-value"), 1);
}

TEST(FabByValue, QualifiedTypeAndStagedObjectFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
void stage(mesh::Fab payload, staging::StagedObject obj);
)cpp");
  EXPECT_EQ(count_rule(f, "fab-by-value"), 2);
}

TEST(FabByValue, ReferenceAndMoveAndSharedPass) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
void borrow(const Fab& payload);
void take(Fab&& payload);
void share(std::shared_ptr<const Fab> payload);
void point(const StagedObject* obj);
)cpp");
  EXPECT_EQ(count_rule(f, "fab-by-value"), 0);
}

TEST(FabByValue, LocalsTemplatesAndCallsPass) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
Fab make(const Box& box) {
  Fab out(box, 1);
  std::vector<Fab> parts;
  std::optional<Fab> maybe;
  Fab copy = out;
  return out;
}
)cpp");
  EXPECT_EQ(count_rule(f, "fab-by-value"), 0);
}

TEST(FabByValue, SuppressedPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(fab-by-value): tiny fixture fab, copy is the point
void stage(Fab payload);
)cpp");
  EXPECT_EQ(count_rule(f, "fab-by-value"), 0);
}

// --- row-loop ----------------------------------------------------------------

TEST(RowLoop, BadFlaggedInScopedLayers) {
  const auto f = lint_text("src/analysis/foo.cpp", R"cpp(
double sum_region(const Fab& fab, const Box& region) {
  double sum = 0.0;
  for (BoxIterator it(region); it.ok(); ++it) {
    sum += fab(*it, 0);
  }
  return sum;
}
)cpp");
  EXPECT_EQ(count_rule(f, "row-loop"), 1);
  EXPECT_EQ(f[0].line, 5);
}

TEST(RowLoop, SingleStatementBodyFlagged) {
  const auto f = lint_text("src/viz/foo.cpp", R"cpp(
void fill(Fab& fab, const Box& region) {
  for (BoxIterator it(region); it.ok(); ++it) fab(*it, 0) = 1.0;
}
)cpp");
  EXPECT_EQ(count_rule(f, "row-loop"), 1);
}

TEST(RowLoop, OutOfScopeLayersPass) {
  const auto f = lint_text("src/amr/foo.cpp", R"cpp(
double sum_region(const Fab& fab, const Box& region) {
  double sum = 0.0;
  for (BoxIterator it(region); it.ok(); ++it) sum += fab(*it, 0);
  return sum;
}
)cpp");
  EXPECT_EQ(count_rule(f, "row-loop"), 0);
}

TEST(RowLoop, DeclarationAndNonAccessorUsesPass) {
  const auto f = lint_text("src/analysis/foo.cpp", R"cpp(
void walk(const Hierarchy& h, const Box& region, std::vector<Box>& out) {
  for (BoxIterator it(region); it.ok(); ++it) {
    if (!h.is_finest_at(0, *it)) continue;
    Box cell(*it, *it);
    out.push_back(cell);
  }
}
)cpp");
  EXPECT_EQ(count_rule(f, "row-loop"), 0);
}

TEST(RowLoop, RowTraversalPasses) {
  const auto f = lint_text("src/analysis/foo.cpp", R"cpp(
double sum_region(const Fab& fab, const Box& region) {
  double sum = 0.0;
  mesh::for_each_row(region, [&](int j, int k) {
    const double* r = fab.row(0, j, k);
    for (std::size_t i = 0; i < nx; ++i) sum += r[i];
  });
  return sum;
}
)cpp");
  EXPECT_EQ(count_rule(f, "row-loop"), 0);
}

TEST(RowLoop, SuppressedPasses) {
  const auto f = lint_text("src/analysis/foo.cpp", R"cpp(
double sum_region(const Fab& fab, const Box& region) {
  double sum = 0.0;
  // xl-lint: allow(row-loop): ordered accumulation is the determinism contract
  for (BoxIterator it(region); it.ok(); ++it) sum += fab(*it, 0);
  return sum;
}
)cpp");
  EXPECT_EQ(count_rule(f, "row-loop"), 0);
}

// --- suppression mechanics ---------------------------------------------------

TEST(Suppression, FileWideCoversEveryLine) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow-file(wallclock): this whole file is a benchmark harness
auto a = std::chrono::steady_clock::now();
void later() { auto b = std::chrono::steady_clock::now(); }
)cpp");
  EXPECT_EQ(count_rule(f, "wallclock"), 0);
}

TEST(Suppression, MultipleRulesInOneMarker) {
  const auto f = lint_text(
      "src/foo.cpp",
      "// xl-lint: allow(wallclock, banned-symbol): timing harness\n"
      "auto t = std::chrono::steady_clock::now(); std::getenv(name);\n");
  EXPECT_EQ(count_rule(f, "wallclock"), 0);
  EXPECT_EQ(count_rule(f, "banned-symbol"), 0);
}

TEST(Suppression, MultiLineCommentCarriesToNextCodeLine) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(wallclock): the explanation of why this is fine runs long
// and wraps onto a second comment line before the code it guards.
auto t = std::chrono::steady_clock::now();
)cpp");
  EXPECT_EQ(count_rule(f, "wallclock"), 0);
}

TEST(Suppression, WrongRuleDoesNotSuppress) {
  const auto f = lint_text(
      "src/foo.cpp",
      "auto t = std::chrono::steady_clock::now();  // xl-lint: allow(float-cast)\n");
  EXPECT_EQ(count_rule(f, "wallclock"), 1);
}

TEST(Suppression, DoesNotLeakPastTheGuardedLine) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(wallclock): only the next line
auto a = std::chrono::steady_clock::now();
auto b = std::chrono::steady_clock::now();
)cpp");
  EXPECT_EQ(count_rule(f, "wallclock"), 1);
}

// --- lexing ------------------------------------------------------------------

TEST(Scrubbing, CommentsAndStringsAreInvisible) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// std::chrono::steady_clock in a comment is not a finding
const char* msg = "std::getenv(name) inside a string is not a finding";
)cpp");
  EXPECT_TRUE(f.empty());
}

TEST(Scrubbing, DigitSeparatorIsNotACharLiteral) {
  // 1'000'000 must not open a char literal and swallow the rest of the file.
  const auto f = lint_text("src/foo.cpp", R"cpp(
const int big = 1'000'000;
auto t = std::chrono::steady_clock::now();
)cpp");
  EXPECT_EQ(count_rule(f, "wallclock"), 1);
}

// --- unordered-iter outside the timeline layers (escape shapes) -------------

TEST(UnorderedEscape, ReturnOfBeginFlagged) {
  const auto f = lint_text("src/amr/foo.cpp", R"cpp(
#include <unordered_set>
#include <vector>
std::vector<int> snapshot(const std::unordered_set<int>& seen) {
  return std::vector<int>(seen.begin(), seen.end());
}
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 1);
}

TEST(UnorderedEscape, FloatAccumulationFlagged) {
  const auto f = lint_text("src/amr/foo.cpp", R"cpp(
#include <unordered_map>
double total(const std::unordered_map<int, double>& costs) {
  double t = 0.0;
  for (const auto& kv : costs) t += kv.second;
  return t;
}
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 1);
}

TEST(UnorderedEscape, SinkCallFlagged) {
  const auto f = lint_text("src/amr/foo.cpp", R"cpp(
#include <unordered_set>
void dump(const std::unordered_set<int>& ids, Log& log) {
  for (int id : ids) {
    log.record(id);
  }
}
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 1);
}

TEST(UnorderedEscape, SortedBeforeEscapePasses) {
  const auto f = lint_text("src/amr/foo.cpp", R"cpp(
#include <algorithm>
#include <unordered_set>
#include <vector>
std::vector<int> snapshot(const std::unordered_set<int>& seen) {
  std::vector<int> out;
  for (int v : seen) {
    out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 0);
}

TEST(UnorderedEscape, CopyIntoOrderedContainerPasses) {
  const auto f = lint_text("src/amr/foo.cpp", R"cpp(
#include <set>
#include <unordered_set>
int count_sorted(const std::unordered_set<int>& ids) {
  std::set<int> sorted(ids.begin(), ids.end());
  return static_cast<int>(sorted.size());
}
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 0);
}

TEST(UnorderedEscape, SuppressedPasses) {
  const auto f = lint_text("src/amr/foo.cpp", R"cpp(
#include <unordered_map>
double total(const std::unordered_map<int, double>& costs) {
  double t = 0.0;
  // xl-lint: allow(unordered-iter): diagnostics-only total, order-free
  for (const auto& kv : costs) t += kv.second;
  return t;
}
)cpp");
  EXPECT_EQ(count_rule(f, "unordered-iter"), 0);
}

// --- unguarded-field (semantic) ----------------------------------------------

constexpr const char* kUnguardedClass = R"cpp(
#include <mutex>
class Counter {
 public:
  void add(int n);
 private:
  std::mutex mu_;
  int total_ = 0;
};
)cpp";

TEST(UnguardedField, BadFlagged) {
  const auto f = lint_text("src/common/foo.hpp", kUnguardedClass);
  ASSERT_EQ(count_rule(f, "unguarded-field"), 1);
  for (const Finding& x : f) {
    if (x.rule == "unguarded-field") {
      EXPECT_NE(x.message.find("total_"), std::string::npos);
    }
  }
}

TEST(UnguardedField, OutsideSrcAndToolsPasses) {
  EXPECT_EQ(count_rule(lint_text("bench/foo.hpp", kUnguardedClass),
                       "unguarded-field"),
            0);
}

TEST(UnguardedField, AnnotatedFieldsPass) {
  const auto f = lint_text("src/common/foo.hpp", R"cpp(
#include <mutex>
#include <string>
class Counter {
 public:
  void add(int n);
 private:
  std::mutex mu_;
  int total_ XL_GUARDED_BY(mu_) = 0;
  XL_UNGUARDED("written once in the constructor")
  std::string label_;
};
)cpp");
  EXPECT_EQ(count_rule(f, "unguarded-field"), 0);
}

TEST(UnguardedField, ExemptCategoriesPass) {
  // atomics, condition variables, threads, constants, and references never
  // need a guard annotation.
  const auto f = lint_text("src/common/foo.hpp", R"cpp(
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
class Worker {
 private:
  std::mutex mu_;
  std::atomic<bool> stop_{false};
  std::condition_variable cv_;
  std::thread thread_;
  static constexpr int kLimit = 8;
  const int capacity_ = 4;
  Registry& registry_;
};
)cpp");
  EXPECT_EQ(count_rule(f, "unguarded-field"), 0);
}

TEST(UnguardedField, MutexFreeClassPasses) {
  const auto f = lint_text("src/common/foo.hpp", R"cpp(
class Point {
 public:
  int x = 0;
  int y = 0;
};
)cpp");
  EXPECT_EQ(count_rule(f, "unguarded-field"), 0);
}

// --- lock-order (semantic, cross-TU) -----------------------------------------

constexpr const char* kTransferHeader = R"cpp(
#include <mutex>
class Transfer {
 public:
  void credit();
  void debit();
 private:
  std::mutex ledger_;
  std::mutex journal_;
};
)cpp";

TEST(LockOrder, CrossFileCycleFlagged) {
  // The class lives in the header; the conflicting acquisition orders live in
  // the .cpp. Only the cross-TU symbol table can connect them.
  const auto f = lint_texts({{"src/transfer.hpp", kTransferHeader},
                             {"src/transfer.cpp", R"cpp(
void Transfer::credit() {
  std::lock_guard<std::mutex> a(ledger_);
  std::lock_guard<std::mutex> b(journal_);
}
void Transfer::debit() {
  std::lock_guard<std::mutex> a(journal_);
  std::lock_guard<std::mutex> b(ledger_);
}
)cpp"}});
  EXPECT_EQ(count_rule(f, "lock-order"), 1);
}

TEST(LockOrder, ConsistentOrderPasses) {
  const auto f = lint_texts({{"src/transfer.hpp", kTransferHeader},
                             {"src/transfer.cpp", R"cpp(
void Transfer::credit() {
  std::lock_guard<std::mutex> a(ledger_);
  std::lock_guard<std::mutex> b(journal_);
}
void Transfer::debit() {
  std::lock_guard<std::mutex> a(ledger_);
  std::lock_guard<std::mutex> b(journal_);
}
)cpp"}});
  EXPECT_EQ(count_rule(f, "lock-order"), 0);
}

TEST(LockOrder, DoubleAcquisitionFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <mutex>
void twice(std::mutex& mu) {
  std::lock_guard<std::mutex> a(mu);
  std::lock_guard<std::mutex> b(mu);
}
)cpp");
  EXPECT_EQ(count_rule(f, "lock-order"), 1);
}

TEST(LockOrder, SelfDeadlockThroughCalleeFlagged) {
  // a() calls b() while holding mu_; b() re-locks mu_. One level of call
  // propagation turns that into a self-edge on Pool::mu_.
  const auto f = lint_texts({{"src/pool.hpp", R"cpp(
#include <mutex>
class Pool {
 public:
  void a();
  void b();
 private:
  std::mutex mu_;
};
)cpp"},
                             {"src/pool.cpp", R"cpp(
void Pool::a() {
  std::lock_guard<std::mutex> l(mu_);
  b();
}
void Pool::b() {
  std::lock_guard<std::mutex> l(mu_);
}
)cpp"}});
  EXPECT_EQ(count_rule(f, "lock-order"), 1);
}

TEST(LockOrder, ScopedUnlockBetweenAcquisitionsPasses) {
  // Sequential (non-nested) acquisitions create no ordering edge.
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <mutex>
void sequential(std::mutex& first, std::mutex& second) {
  {
    std::lock_guard<std::mutex> a(first);
  }
  {
    std::lock_guard<std::mutex> b(second);
  }
}
)cpp");
  EXPECT_EQ(count_rule(f, "lock-order"), 0);
}

// --- parallel-merge: outer float accumulation --------------------------------

TEST(ParallelFloatMerge, OuterAccumulatorFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <cstddef>
#include <vector>
double unstable(const std::vector<double>& xs) {
  double sum = 0.0;
  parallel_for(xs.size(), [&](std::size_t i) {
    sum += xs[i];
  });
  return sum;
}
)cpp");
  EXPECT_EQ(count_rule(f, "parallel-merge"), 1);
}

TEST(ParallelFloatMerge, PerChunkSlotsPass) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <cstddef>
#include <vector>
double stable(const std::vector<double>& xs, std::size_t chunks) {
  std::vector<double> parts(chunks, 0.0);
  parallel_for_chunks(xs.size(), chunks,
                      [&](std::size_t c, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) parts[c] += xs[i];
                      });
  double sum = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) sum += parts[c];
  return sum;
}
)cpp");
  EXPECT_EQ(count_rule(f, "parallel-merge"), 0);
}

TEST(ParallelFloatMerge, LambdaLocalAccumulatorPasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <cstddef>
void per_chunk(std::size_t n) {
  parallel_for(n, [&](std::size_t i) {
    double local = 0.0;
    local += 1.0;
    consume(local);
  });
}
)cpp");
  EXPECT_EQ(count_rule(f, "parallel-merge"), 0);
}

// --- scratch-escape (semantic) -----------------------------------------------

TEST(ScratchEscape, ReturnOfRawStorageFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <cstddef>
const double* leak(std::size_t n) {
  Scratch<double> tmp(n);
  return tmp.data();
}
)cpp");
  EXPECT_EQ(count_rule(f, "scratch-escape"), 1);
}

TEST(ScratchEscape, MemberStoreFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <cstddef>
struct Cache {
  double* view_ = nullptr;
  void refresh(std::size_t n) {
    Scratch<double> tmp(n);
    view_ = tmp.data();
  }
};
)cpp");
  EXPECT_EQ(count_rule(f, "scratch-escape"), 1);
}

TEST(ScratchEscape, DeferredCaptureFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <cstddef>
#include <cstdint>
void defer(ThreadPool& pool, std::size_t n) {
  Scratch<std::uint32_t> ids(n);
  pool.submit([&] { consume(ids); });
}
)cpp");
  EXPECT_EQ(count_rule(f, "scratch-escape"), 1);
}

TEST(ScratchEscape, ScopedUsePasses) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
#include <cstddef>
double checksum(const double* xs, std::size_t n) {
  Scratch<double> tmp(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    tmp.data()[i] = xs[i] + 1.0;
    acc += tmp.data()[i];
  }
  return acc;
}
)cpp");
  EXPECT_EQ(count_rule(f, "scratch-escape"), 0);
}

// --- stale-suppression -------------------------------------------------------

TEST(StaleSuppression, UnusedMarkerFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(wallclock): the clock read this guarded is long gone
int x = 0;
)cpp");
  EXPECT_EQ(count_rule(f, "stale-suppression"), 1);
}

TEST(StaleSuppression, UnknownRuleFlagged) {
  const auto f = lint_text(
      "src/foo.cpp", "int x = 0;  // xl-lint: allow(wall-clock): typo'd id\n");
  ASSERT_EQ(count_rule(f, "stale-suppression"), 1);
  EXPECT_NE(f[0].message.find("unknown rule"), std::string::npos);
}

TEST(StaleSuppression, UsedMarkerNotFlagged) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(wallclock): measurement-only diagnostic
auto t = std::chrono::steady_clock::now();
)cpp");
  EXPECT_EQ(count_rule(f, "stale-suppression"), 0);
}

TEST(StaleSuppression, PartiallyUsedMultiRuleMarkerFlagged) {
  // One marker, two rules; only wallclock fires, so the banned-symbol half of
  // the marker is dead weight and gets reported.
  const auto f = lint_text("src/foo.cpp", R"cpp(
// xl-lint: allow(wallclock, banned-symbol): timing harness
auto t = std::chrono::steady_clock::now();
)cpp");
  EXPECT_EQ(count_rule(f, "stale-suppression"), 1);
}

TEST(StaleSuppression, MarkerInsideStringLiteralIgnored) {
  // A marker spelled inside a string literal is data, not a suppression: it
  // must neither suppress the real finding nor count as a stale marker.
  const auto f = lint_text("src/foo.cpp", R"cpp(
const char* doc = "// xl-lint: allow(wallclock)";
auto t = std::chrono::steady_clock::now();
)cpp");
  EXPECT_EQ(count_rule(f, "wallclock"), 1);
  EXPECT_EQ(count_rule(f, "stale-suppression"), 0);
}

// --- machine-readable report -------------------------------------------------

TEST(Reports, SarifCarriesTheFindings) {
  const auto findings = lint_text(
      "src/foo.cpp", "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string s = sarif_report(findings);
  EXPECT_NE(s.find("2.1.0"), std::string::npos);
  EXPECT_NE(s.find("wallclock"), std::string::npos);
  EXPECT_NE(s.find("src/foo.cpp"), std::string::npos);
}

// --- CLI-facing basics -------------------------------------------------------

TEST(Rules, AtLeastSevenRegisteredWithSummaries) {
  EXPECT_GE(rules().size(), 7u);
  for (const RuleInfo& r : rules()) {
    EXPECT_FALSE(std::string(r.id).empty());
    EXPECT_FALSE(std::string(r.summary).empty());
  }
}

TEST(Findings, SortedByLine) {
  const auto f = lint_text("src/foo.cpp", R"cpp(
auto b = std::chrono::steady_clock::now();
const char* v = std::getenv(name);
)cpp");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_LT(f[0].line, f[1].line);
}

}  // namespace
}  // namespace xl::lint
