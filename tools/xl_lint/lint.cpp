#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "model.hpp"
#include "report.hpp"
#include "rules.hpp"

namespace xl::lint {

namespace {

// --- suppressions ------------------------------------------------------------

/// One rule id from one `xl-lint: allow(...)` comment. Usage is tracked so
/// markers that stop matching anything are reported (stale-suppression).
struct Marker {
  int marker_line = 0;  // line holding the comment (1-based).
  int target_line = 0;  // code line guarded (unused for file-wide markers).
  bool file_wide = false;
  std::string rule;
  bool used = false;
};

/// Parse ` allow(<id>, ...)` or ` allow-file(<id>, ...)` at text[i] (just
/// past `xl-lint:`). Returns the index past the ')' and fills `ids`, or
/// returns npos when the text is not a marker.
std::size_t parse_allow(const std::string& text, std::size_t i, bool& file_wide,
                        std::vector<std::string>& ids) {
  const auto skip_blanks = [&](std::size_t k) {
    while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k]))) ++k;
    return k;
  };
  i = skip_blanks(i);
  if (text.compare(i, 5, "allow") != 0) return std::string::npos;
  i += 5;
  file_wide = text.compare(i, 5, "-file") == 0;
  if (file_wide) i += 5;
  if (i >= text.size() || text[i] != '(') return std::string::npos;
  for (;;) {
    i = skip_blanks(i + 1);
    const std::size_t begin = i;
    while (i < text.size() && (std::islower(static_cast<unsigned char>(text[i])) ||
                               std::isdigit(static_cast<unsigned char>(text[i])) ||
                               text[i] == '-')) {
      ++i;
    }
    if (i == begin) return std::string::npos;
    ids.push_back(text.substr(begin, i - begin));
    i = skip_blanks(i);
    if (i < text.size() && text[i] == ')') return i + 1;
    if (i >= text.size() || text[i] != ',') return std::string::npos;
  }
}

/// Every marker in the file's comments. A marker on a comment-only line
/// guards the next code line, however many comment lines the explanation
/// spans; a trailing marker guards its own line.
std::vector<Marker> parse_markers(const FileModel& model) {
  std::vector<Marker> out;
  for (const Comment& c : model.comments) {
    int target = c.line;
    if (model.comment_only_lines.count(c.line)) {
      do {
        ++target;
      } while (model.comment_only_lines.count(target));
    }
    std::size_t at = 0;
    while ((at = c.text.find("xl-lint:", at)) != std::string::npos) {
      at += 8;
      bool file_wide = false;
      std::vector<std::string> ids;
      const std::size_t past = parse_allow(c.text, at, file_wide, ids);
      if (past == std::string::npos) continue;
      at = past;
      for (std::string& id : ids) {
        out.push_back(Marker{c.line, target, file_wide, std::move(id), false});
      }
    }
  }
  return out;
}

/// Does any marker cover (rule, line)? Marks every covering marker used.
bool suppressed(std::vector<Marker>& markers, const Finding& f) {
  bool covered = false;
  for (Marker& m : markers) {
    if (m.rule != f.rule && m.rule != "all") continue;
    if (m.file_wide || m.target_line == f.line) {
      m.used = true;
      covered = true;
    }
  }
  return covered;
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"wallclock", "wall-clock/time sources outside the substrate clock"},
      {"raw-random", "unseeded or global randomness outside common/rng.hpp"},
      {"unordered-iter",
       "iteration over unordered containers: any in src/runtime, src/cluster, "
       "src/workflow; results escaping unsorted elsewhere in src/ and tools/"},
      {"float-cast", "raw static_cast from floating point to integer without a guard"},
      {"parallel-merge",
       "parallel_for body mutating a shared container or accumulating into an "
       "outer float"},
      {"missing-include", "use of a std symbol without its owning header"},
      {"banned-symbol", "environment/process escapes (getenv, system, sleeps)"},
      {"fab-by-value", "pass-by-value Fab/StagedObject parameters (payload deep-copy)"},
      {"row-loop",
       "per-cell fab(*it, c) accessors in analysis/viz hot loops (hoist Fab::row)"},
      {"unguarded-field",
       "mutex-owning class field lacking XL_GUARDED_BY or XL_UNGUARDED(reason)"},
      {"lock-order", "cycle in the cross-TU lock acquisition order graph"},
      {"stale-suppression", "an allow() marker that no longer suppresses anything"},
  };
  return kRules;
}

std::vector<Finding> lint_texts(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<FileModel> models;
  models.reserve(sources.size());
  for (const auto& [path, text] : sources) models.push_back(build_file_model(path, text));
  const SymbolTable table = build_symbol_table(models);

  std::vector<std::vector<Finding>> per_file(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) run_file_rules(models[i], per_file[i]);
  // Lock-order runs once over the whole table; its findings are attributed to
  // the file holding the representative acquisition so that file's
  // suppressions govern them.
  std::vector<Finding> global;
  run_lock_order_rule(models, table, global);
  for (Finding& f : global) {
    for (std::size_t i = 0; i < models.size(); ++i) {
      if (models[i].path == f.file) {
        per_file[i].push_back(std::move(f));
        break;
      }
    }
  }

  std::set<std::string> known_rules = {"all"};
  for (const RuleInfo& rule : rules()) known_rules.insert(rule.id);

  std::vector<Finding> out;
  for (std::size_t i = 0; i < models.size(); ++i) {
    std::vector<Marker> markers = parse_markers(models[i]);
    std::vector<Finding> kept;
    for (Finding& f : per_file[i]) {
      if (!suppressed(markers, f)) kept.push_back(std::move(f));
    }
    // Stale / mistyped markers: an allow() that suppressed nothing is debt.
    for (const Marker& m : markers) {
      if (!known_rules.count(m.rule)) {
        kept.push_back(Finding{
            models[i].path, m.marker_line, "stale-suppression",
            "suppression references unknown rule '" + m.rule +
                "' (see --list-rules); fix the id or remove the marker"});
      } else if (!m.used) {
        kept.push_back(Finding{
            models[i].path, m.marker_line, "stale-suppression",
            "suppression for rule '" + m.rule +
                "' no longer matches any finding; remove the marker"});
      }
    }
    std::stable_sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
      return a.line != b.line ? a.line < b.line : a.rule < b.rule;
    });
    out.insert(out.end(), std::make_move_iterator(kept.begin()),
               std::make_move_iterator(kept.end()));
  }
  return out;
}

std::vector<Finding> lint_text(const std::string& path, const std::string& text) {
  return lint_texts({{path, text}});
}

std::vector<std::string> collect_sources(const std::string& root,
                                         const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  const auto wanted = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
  };
  const auto skipped_dir = [](const std::string& name) {
    return name == ".git" || name == "fixtures" || name.rfind("build", 0) == 0;
  };
  for (const std::string& rel : paths) {
    const fs::path base = fs::path(root) / rel;
    if (fs::is_regular_file(base)) {
      out.push_back(rel);
      continue;
    }
    if (!fs::is_directory(base)) {
      throw std::invalid_argument("no such file or directory: " + base.string());
    }
    fs::recursive_directory_iterator it(base), end;
    while (it != end) {
      if (it->is_directory() && skipped_dir(it->path().filename().string())) {
        it.disable_recursion_pending();
      } else if (it->is_regular_file() && wanted(it->path())) {
        out.push_back(fs::relative(it->path(), root).generic_string());
      }
      ++it;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int run_cli(int argc, const char* const* argv) {
  std::string root = ".";
  std::string sarif_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const RuleInfo& rule : rules()) {
        std::cout << rule.id << "  " << rule.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: xl_lint [--root DIR] [--sarif FILE] [--list-rules] PATH...\n"
             "Lints .cpp/.hpp/.h/.cc files under each PATH (relative to --root)\n"
             "against the determinism-contract rules. The one way to accept a\n"
             "finding is an inline `// xl-lint: allow(<rule>): <reason>` marker.\n"
             "  --root DIR     resolve PATHs against DIR (default .)\n"
             "  --sarif FILE   additionally write a SARIF 2.1.0 report\n"
             "  --list-rules   print the rule ids and exit\n"
             "  --help         print this help and exit\n"
             "Exit 0 = clean, 1 = findings, 2 = error.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "xl_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "xl_lint: no paths given (try --help)\n";
    return 2;
  }
  std::vector<std::string> files;
  try {
    files = collect_sources(root, paths);
  } catch (const std::exception& e) {
    std::cerr << "xl_lint: " << e.what() << "\n";
    return 2;
  }
  if (files.empty()) {
    std::cerr << "xl_lint: no source files found under the given paths\n";
    return 2;
  }

  // Read every file up front: the rules want one symbol table spanning all
  // translation units.
  std::vector<std::pair<std::string, std::string>> sources;
  std::vector<Finding> findings;
  for (const std::string& rel : files) {
    std::ifstream in(std::filesystem::path(root) / rel, std::ios::binary);
    if (!in) {
      findings.push_back(Finding{rel, 0, "io", "cannot open file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources.emplace_back(rel, buffer.str());
  }
  std::vector<Finding> linted = lint_texts(sources);
  findings.insert(findings.end(), std::make_move_iterator(linted.begin()),
                  std::make_move_iterator(linted.end()));

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "xl_lint: cannot write SARIF report " << sarif_path << "\n";
      return 2;
    }
    out << sarif_report(findings);
  }

  std::set<std::string> files_with_findings;
  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
    files_with_findings.insert(f.file);
  }
  std::cerr << "xl_lint: " << files.size() << " files, " << findings.size()
            << " finding" << (findings.size() == 1 ? "" : "s");
  if (!findings.empty()) std::cerr << " in " << files_with_findings.size() << " files";
  std::cerr << "\n";
  return findings.empty() ? 0 : 1;
}

}  // namespace xl::lint
