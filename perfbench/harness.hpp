// Benchmark plumbing shared by every workload: the wall clock, in-memory
// spans with Chrome trace-event export, the summary statistics the report
// uses, the output digest, the reference table, and the measuring loop.
//
// Spans are recorded around calls INTO the library (the library itself is not
// instrumented), so every layer is measured from outside through its public
// functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds since the first call in this process (steady clock).
double now_s();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// --- Statistics ---------------------------------------------------------------

/// Percentile `p` in [0, 100] of `v` by linear interpolation between the
/// closest ranks (the "type 7" rule numpy uses by default). 0 for empty input.
double percentile(std::vector<double> v, double p);

double median(const std::vector<double>& v);

/// The highest of the report's candidate percentiles (99.9, 99, 95, 90, 75,
/// 50) that still has at least ten of `n` samples beyond it; 50 when even the
/// median has fewer (n < 20). A tail figure computed from fewer samples than
/// that is one or two outliers, not a percentile.
double highest_supported_percentile(std::size_t n);

// --- Spans --------------------------------------------------------------------

/// One timed call: `parent` is the index of the enclosing span (-1 = root),
/// `run` the measured unit it belongs to, `track` the thread it ran on
/// (1 = the driving thread, 2 = the staging workers). Names are string
/// literals: a traced run keeps up to a few million spans.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = 0;
  int track = 1;
};

/// Per-name totals of a span set: calls, summed duration, summed self time.
struct LayerTotal {
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Self time of every span: its duration minus the part of [start, end] that
/// the union of its children covers (children may overlap each other, as the
/// staging workers' requests do, and may spill past their parent).
std::vector<double> self_times(const std::vector<Span>& spans);

std::map<std::string, LayerTotal> layer_totals(const std::vector<Span>& spans);

/// Records spans in memory when enabled; a no-op otherwise. Nesting follows a
/// stack on the driving thread; staging-side spans are added after the fact
/// with an explicit parent.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  void set_run(int run) noexcept { run_ = run; }

  /// Open a span under the innermost open span; returns its index (-1 when
  /// disabled).
  int open(const char* name);
  void close(int id);
  /// Innermost open span (-1 when none or disabled).
  int current() const noexcept { return stack_.empty() ? -1 : stack_.back(); }
  /// Record a finished span (e.g. reconstructed from a staging event).
  void add(const char* name, double start, double end, int parent, int track);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::vector<Span> take() noexcept { return std::move(spans_); }

 private:
  bool enabled_;
  int run_ = 0;
  std::vector<int> stack_;
  std::vector<Span> spans_;
};

/// `spans` as Chrome trace-event JSON (Perfetto and chrome://tracing open it).
/// At most `max_spans` are written; the file's metadata states how many were
/// left out.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_spans);

/// Per-layer table of `spans` (calls, total and self seconds) as JSON.
void write_summary(const std::string& path, const std::vector<Span>& spans,
                   int traced_units);

/// RAII span that also hands back its own duration, so the untraced run can
/// time the same calls without recording anything.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)), start_(now_s()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Close the span now; returns its duration (idempotent).
  double stop() {
    if (!stopped_) {
      seconds_ = now_s() - start_;
      tracer_.close(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  int id_;
  double start_;
  double seconds_ = 0.0;
  bool stopped_ = false;
};

// --- Output checks ------------------------------------------------------------

/// FNV-1a 64-bit digest of `bytes` as 16 lowercase hex digits.
std::string digest(std::string_view bytes);

/// Reference outputs recorded at the benchmark-defining commit: one line per
/// value, "<workload> <variant> <key> <value>".
class References {
 public:
  /// Empty table when `path` is empty; throws on an unreadable file.
  explicit References(const std::string& path);
  /// Recorded value, or "" when none was recorded.
  std::string get(const std::string& workload, int variant, const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Deterministic 64-bit generator for benchmark inputs (SplitMix64), so the
/// inputs a seed yields do not depend on the standard library's algorithms.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// --- Results --------------------------------------------------------------------

/// What one workload run hands back to main(): the raw samples behind the
/// end-to-end metrics, the operation tally, and (traced runs) the per-layer
/// figures already normalized per traced unit.
struct RunResult {
  std::vector<double> setup_s;  ///< one per set-up.
  std::vector<double> wall_s;   ///< one per untraced unit.
  std::vector<double> step_ms;  ///< host time per step on the driving thread.
  /// [begin, end) of each untraced unit's samples in step_ms, aligned with wall_s.
  std::vector<std::pair<std::size_t, std::size_t>> unit_steps;
  std::vector<int> unit_kinds;  ///< UnitTimes::kind of each untraced unit.
  /// Peak RSS when the first untraced unit ended. Later units repeat the same
  /// work, so they add only this benchmark's own sample storage, which grows
  /// with the number of units that fit the budget.
  double peak_rss_mb = 0.0;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< human-readable reason per failed check.
  std::map<std::string, std::pair<double, std::string>> layers;  ///< name -> (value, unit).
  std::vector<std::string> record_lines;  ///< --record output.
  std::vector<Span> spans;                ///< traced units' spans.
  int traced_units = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// Common knobs every workload receives.
struct RunOptions {
  int variant = 0;         ///< input variant the seed selects.
  double seconds = 10.0;   ///< measuring budget.
  bool trace = false;
  bool record = false;     ///< run every case once and emit reference lines.
  const References* refs = nullptr;
};

/// A run's timings from its least-disturbed repeats. Units of one kind (see
/// UnitTimes::kind) repeat identical work, and other tenants of a shared host
/// only ever slow that work down, in bursts lasting seconds to minutes. So
/// `wall_s` holds the wall of the fastest unit of each kind, and `step_ms` the
/// step samples of those same units: each kind's steps as one real run took
/// them. A regression slows every repeat and still shows in full.
struct BestRepeats {
  std::vector<double> wall_s;
  std::vector<double> step_ms;
};
BestRepeats best_repeats(const RunResult& rr);

/// Median over pairs of (traced wall - untraced wall): seconds and fraction of
/// the untraced wall.
std::pair<double, double> tracing_overhead(const std::vector<double>& untraced_wall,
                                           const std::vector<double>& traced_wall);

/// Summed duration of the spans called `name`, per traced unit.
double per_unit(const std::map<std::string, LayerTotal>& totals, const char* name, int units);

/// Wall-clock figures of one unit.
struct UnitTimes {
  double setup_s = 0.0;
  double wall_s = 0.0;    ///< set-up and replays excluded.
  double replay_s = 0.0;  ///< traced units only.
  int kind = 0;           ///< units of one kind do identical work.
};

/// The measuring loop every workload shares. It starts rounds while the next
/// one (predicted from the median round so far) still fits the budget, and
/// runs at least one; record mode runs exactly `record_units`. A round is one
/// untraced unit, or in a traced run an untraced unit followed by a traced
/// unit of the same work, so each pair measures the tracing overhead.
/// `unit(round, tracer)` runs one unit, recording spans into `tracer` when it
/// is enabled. Fills rr's set-up, wall, peak-RSS and traced-unit figures and
/// the trace.* layer metrics.
template <typename Unit>
void run_rounds(const RunOptions& options, int record_units, Tracer& tracer, RunResult& rr,
                Unit&& unit) {
  Tracer off(false);
  const double start = now_s();
  std::vector<double> round_costs, traced_wall;
  double replay_s = 0.0;
  const auto another = [&] {
    if (options.record) return static_cast<int>(round_costs.size()) < record_units;
    return round_costs.empty() || now_s() - start + median(round_costs) <= options.seconds;
  };
  for (int round = 0; another(); ++round) {
    double cost = 0.0;
    for (int pass = 0; pass < (options.trace ? 2 : 1); ++pass) {
      const bool traced = pass == 1;
      tracer.set_run(round);
      const std::size_t first_step = rr.step_ms.size();
      const UnitTimes t = unit(round, traced ? tracer : off);
      cost += t.setup_s + t.wall_s + t.replay_s;
      if (traced) {
        traced_wall.push_back(t.wall_s);
        replay_s += t.replay_s;
        ++rr.traced_units;
      } else {
        rr.setup_s.push_back(t.setup_s);
        rr.wall_s.push_back(t.wall_s);
        rr.unit_steps.emplace_back(first_step, rr.step_ms.size());
        rr.unit_kinds.push_back(t.kind);
        if (rr.peak_rss_mb == 0.0) rr.peak_rss_mb = peak_rss_mb();
      }
    }
    round_costs.push_back(cost);
  }
  if (!options.trace) return;
  const auto [overhead_s, overhead_frac] = tracing_overhead(rr.wall_s, traced_wall);
  rr.layers["trace.overhead_s"] = {overhead_s, "s"};
  rr.layers["trace.overhead_frac"] = {overhead_frac, "ratio"};
  rr.layers["trace.replay_s"] = {replay_s / rr.traced_units, "s"};
}

}  // namespace perfbench
