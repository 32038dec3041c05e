// The harness of the regression-gate benches (bench_kernel_scaling): their
// command line, their gates and their JSON report. A bench gates what needs
// a timing; an invariant that needs none is a ctest case.
//
//   --quick   CI-sized run
//   --check   also enforce the bench's threshold gates
//   --json F  write the report as JSON to file F
//
// A gate is either an invariant (bit-identity, a checksum), which fails the
// run with or without --check, or a threshold (a speedup bar), which fails it
// only under --check. Every report shares one envelope and then carries the
// bench's own fields and record arrays:
//
//   {"bench": ..., "quick": ..., "ok": ..., "gates": [...], <bench fields>}
//
// "ok" is the run's verdict (exit status 0); each gate records its kind,
// whether this run enforced it, and whether it passed.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace xl::bench {

struct GateFlags {
  bool quick = false;
  bool check = false;
  std::string json_path;  ///< empty: no JSON report.
};

/// Parses argv. On anything else it prints the usage line for `bench` and
/// returns nullopt; the caller then exits with status 2.
inline std::optional<GateFlags> parse_gate_flags(int argc, char** argv,
                                                 const char* bench) {
  GateFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      flags.quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      flags.check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      flags.json_path = argv[++i];
    } else {
      std::cerr << "usage: " << bench << " [--quick] [--check] [--json FILE]\n";
      return std::nullopt;
    }
  }
  return flags;
}

/// printf-style formatting into a string, for gate messages.
template <typename... Args>
std::string strprintf(const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string out(static_cast<std::size_t>(n > 0 ? n : 0), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}

/// `s` as a JSON string literal: quotes, backslashes and control characters
/// escaped.
inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += strprintf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(ch)));
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// One JSON object; fields keep insertion order. Each value is rendered when
/// it is set: strings are escaped, and a non-finite double, which JSON
/// cannot represent, becomes null.
class Record {
 public:
  template <typename T>
  Record& set(std::string_view key, const T& value) {
    std::string field = json_string(key) + ": ";
    if constexpr (std::is_same_v<T, bool>) {
      field += value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      field += std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
      field += std::isfinite(value) && ec == std::errc() ? std::string(buf, end) : "null";
    } else {
      field += json_string(value);
    }
    fields_.push_back(std::move(field));
    return *this;
  }

  /// The `"key": value` fields, in insertion order.
  const std::vector<std::string>& fields() const noexcept { return fields_; }

  /// The object on one line.
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i > 0 ? ", " : "") + fields_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> fields_;
};

/// Collects one gate bench's gates and report, then prints the verdict,
/// writes the JSON and yields the exit status.
class Report {
 public:
  Report(std::string bench, GateFlags flags)
      : bench_(std::move(bench)), flags_(std::move(flags)) {}

  /// A top-level field of the bench, after the envelope.
  template <typename T>
  Report& set(std::string_view key, const T& value) {
    fields_.set(key, value);
    return *this;
  }

  /// Appends `record` to the array `name`; arrays keep first-use order.
  void add(std::string_view name, Record record) {
    for (auto& [array, records] : arrays_) {
      if (array == name) {
        records.push_back(std::move(record));
        return;
      }
    }
    arrays_.push_back({std::string(name), {std::move(record)}});
  }

  /// A gate that fails the run with or without --check. `failure` is the
  /// message printed after "FAIL: " when it does.
  void invariant(std::string name, bool passed, std::string failure) {
    gates_.push_back({std::move(name), false, passed, std::move(failure)});
  }

  /// A gate that fails the run only under --check.
  void threshold(std::string name, bool passed, std::string failure) {
    gates_.push_back({std::move(name), true, passed, std::move(failure)});
  }

  /// Prints "FAIL: ..." to stderr for every enforced gate that failed, or
  /// "check: OK (<ok_summary>)" when --check found none; writes the --json
  /// report. Returns the exit status: 0 when every enforced gate passed and
  /// the report (if asked for) was written, else 1.
  int finish(std::string_view ok_summary) const {
    bool ok = true;
    for (const Gate& g : gates_) {
      if (enforced(g) && !g.passed) {
        std::cerr << "FAIL: " << g.failure << "\n";
        ok = false;
      }
    }
    if (!flags_.json_path.empty()) {
      std::ofstream os(flags_.json_path);
      write_json(os, ok);
      os.close();  // a failed open, write or flush all leave the stream failed
      if (!os) {
        std::cerr << "FAIL: cannot write the report to " << flags_.json_path << "\n";
        return 1;
      }
    }
    if (flags_.check && ok) std::cout << "check: OK (" << ok_summary << ")\n";
    return ok ? 0 : 1;
  }

 private:
  struct Gate {
    std::string name;
    bool threshold = false;
    bool passed = false;
    std::string failure;
  };

  bool enforced(const Gate& g) const noexcept { return !g.threshold || flags_.check; }

  void write_json(std::ostream& os, bool ok) const {
    std::vector<std::string> lines = Record()
                                         .set("bench", bench_)
                                         .set("quick", flags_.quick)
                                         .set("ok", ok)
                                         .fields();
    const auto array = [](std::string_view name, const std::vector<Record>& records) {
      std::string out = json_string(name) + ": [";
      for (std::size_t i = 0; i < records.size(); ++i) {
        out += (i > 0 ? ",\n    " : "\n    ") + records[i].str();
      }
      return out + (records.empty() ? "]" : "\n  ]");
    };
    std::vector<Record> gates;
    for (const Gate& g : gates_) {
      gates.push_back(Record()
                          .set("name", g.name)
                          .set("kind", g.threshold ? "threshold" : "invariant")
                          .set("enforced", enforced(g))
                          .set("passed", g.passed));
    }
    lines.push_back(array("gates", gates));
    lines.insert(lines.end(), fields_.fields().begin(), fields_.fields().end());
    for (const auto& [name, records] : arrays_) lines.push_back(array(name, records));

    os << "{\n";
    for (std::size_t i = 0; i < lines.size(); ++i) {
      os << "  " << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
    }
    os << "}\n";
  }

  std::string bench_;
  GateFlags flags_;
  Record fields_;
  std::vector<std::pair<std::string, std::vector<Record>>> arrays_;
  std::vector<Gate> gates_;
};

}  // namespace xl::bench
