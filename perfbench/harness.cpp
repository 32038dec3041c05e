#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

double peak_rss_mb() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss is
  // not: Linux carries it across exec, so it would report the launching
  // process's footprint whenever that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- Statistics ---------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double highest_supported_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100), counted
    // in whole samples (rounded to absorb the binary error of 1 - 0.999).
    const double beyond = std::round(static_cast<double>(n) * (100.0 - p) * 1e6) / 1e8;
    if (beyond >= 10.0) return p;
  }
  return 50.0;
}

// --- Spans --------------------------------------------------------------------

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (std::size_t c : children[i]) {
      const double lo = std::max(s.start, spans[c].start);
      const double hi = std::min(s.end, spans[c].end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = -1.0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

std::map<std::string, LayerTotal> layer_totals(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerTotal> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotal& t = out[spans[i].name];
    ++t.calls;
    t.total_s += spans[i].end - spans[i].start;
    t.self_s += self[i];
  }
  return out;
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_s(), 0.0, current(), run_, 1});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Spans close innermost first; tolerate an out-of-order close by unwinding
  // down to the span being closed.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void Tracer::add(const char* name, double start, double end, int parent, int track) {
  if (!enabled_) return;
  spans_.push_back({name, start, end, parent, run_, track});
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::size_t n = std::min(max_spans, spans.size());
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_total\":" << spans.size()
     << ",\"spans_written\":" << n << "},\"traceEvents\":[\n";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"main thread (simulation)\"}},\n";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
        "\"args\":{\"name\":\"staging workers\"}}";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    os << ",\n{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
       << json_escape(name.substr(0, name.find('.'))) << "\",\"ph\":\"X\",\"ts\":"
       << num(s.start * 1e6) << ",\"dur\":" << num((s.end - s.start) * 1e6)
       << ",\"pid\":1,\"tid\":" << s.track << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
  }
  os << "\n]}\n";
}

void write_summary(const std::string& path, const std::vector<Span>& spans,
                   int traced_units) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"traced_units\":" << traced_units << ",\"layers\":[\n";
  bool first = true;
  for (const auto& [name, t] : layer_totals(spans)) {
    os << (first ? "" : ",\n") << "{\"name\":\"" << json_escape(name)
       << "\",\"calls\":" << t.calls << ",\"total_s\":" << num(t.total_s)
       << ",\"self_s\":" << num(t.self_s) << "}";
    first = false;
  }
  os << "\n]}\n";
}

// --- Output checks ------------------------------------------------------------

std::string digest(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

References::References(const std::string& path) {
  if (path.empty()) return;
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read reference table " + path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, variant, key, value;
    if (!(ls >> workload >> variant >> key >> value)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    values_[workload + "/" + variant + "/" + key] = value;
  }
}

std::string References::get(const std::string& workload, int variant,
                             const std::string& key) const {
  const auto it = values_.find(workload + "/" + std::to_string(variant) + "/" + key);
  return it == values_.end() ? std::string() : it->second;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- Loop helpers ---------------------------------------------------------------

std::pair<double, double> tracing_overhead(const std::vector<double>& untraced_wall,
                                           const std::vector<double>& traced_wall) {
  std::vector<double> abs, rel;
  const std::size_t n = std::min(untraced_wall.size(), traced_wall.size());
  for (std::size_t i = 0; i < n; ++i) {
    abs.push_back(traced_wall[i] - untraced_wall[i]);
    rel.push_back(abs.back() / untraced_wall[i]);
  }
  return {median(abs), median(rel)};
}

BestRepeats best_repeats(const RunResult& rr) {
  std::map<int, std::vector<std::size_t>> units_of_kind;
  for (std::size_t u = 0; u < rr.wall_s.size(); ++u) units_of_kind[rr.unit_kinds.at(u)].push_back(u);
  BestRepeats out;
  for (const auto& [kind, units] : units_of_kind) {
    const std::size_t best =
        *std::min_element(units.begin(), units.end(),
                          [&](std::size_t a, std::size_t b) { return rr.wall_s[a] < rr.wall_s[b]; });
    const auto [begin, end] = rr.unit_steps.at(best);
    out.wall_s.push_back(rr.wall_s[best]);
    out.step_ms.insert(out.step_ms.end(), rr.step_ms.begin() + static_cast<std::ptrdiff_t>(begin),
                       rr.step_ms.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

double per_unit(const std::map<std::string, LayerTotal>& totals, const char* name, int units) {
  const auto it = totals.find(name);
  return it == totals.end() || units == 0 ? 0.0 : it->second.total_s / units;
}

}  // namespace perfbench
