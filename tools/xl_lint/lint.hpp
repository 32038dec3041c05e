// xl_lint: the project's determinism-contract checker.
//
// A small, dependency-free static analyzer that enforces the repo's hard
// invariants (bit-identical timelines, seeded-only randomness, ordered
// parallel merges, guarded numeric conversions) at commit time instead of
// test time. It has one front end (tools/xl_lint/model.hpp): a lexer that
// drops comments, string literals and preprocessor lines, and a
// declaration/scope model over the resulting tokens, merged across
// translation units into one symbol table (a mutex declared in a header
// resolves when locked from a .cpp file). Every rule reads that model.
//
// The rules are heuristics, not a compiler. The one way to accept a finding
// is an inline marker with its reason, and a marker that stops matching
// anything is itself flagged (stale-suppression), so the allow-list never
// rots. A trailing marker guards its own line; one on a comment-only line
// guards the next code line, however many comment lines the explanation
// spans:
//   // xl-lint: allow(<rule>)                 -- bare
//   // xl-lint: allow(<rule>): <reason>       -- with the reason string
//   // xl-lint: allow(<rule>, <rule2>): ...   -- several rules at once
//   // xl-lint: allow-file(<rule>): <reason>  -- whole file
//
// Rules (rules() is the authoritative list):
//   wallclock          wall-clock/time sources outside the substrate clock
//   raw-random         unseeded or global randomness outside common/rng.hpp
//   unordered-iter     any iteration over an unordered container in the layers
//                      where accumulation order reaches the timeline (runtime,
//                      cluster, workflow); elsewhere in src/ and tools/,
//                      hash-order results escaping unsorted (returns, sinks,
//                      float sums, unsorted appends)
//   float-cast         raw static_cast from floating point to integer
//   parallel-merge     a parallel_for / parallel_for_chunks body mutating a
//                      shared container or accumulating into an outer float
//   missing-include    use of a std symbol without its owning header
//   banned-symbol      environment/process escapes (getenv, system, sleeps)
//   fab-by-value       pass-by-value Fab/StagedObject parameters
//   row-loop           per-cell fab(*it, c) accessors in analysis/viz loops
//   unguarded-field    mutex-owning class with an unannotated field
//   lock-order         cross-TU lock acquisition order cycles
//   scratch-escape     pooled Scratch storage escaping its RAII scope
//   stale-suppression  an allow() marker that no longer suppresses anything
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace xl::lint {

struct Finding {
  std::string file;     ///< path as given (repo-relative in CI).
  int line = 0;         ///< 1-based.
  std::string rule;     ///< rule id, e.g. "wallclock".
  std::string message;  ///< human-readable explanation.
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The authoritative rule list (stable ids; suppressions reference these).
const std::vector<RuleInfo>& rules();

/// Lint a set of translation units together: the rules share one symbol
/// table across every file, so cross-TU facts (a mutex declared in a header,
/// locked from a .cpp) resolve. Findings come back grouped per file in input
/// order, sorted by (line, rule) within each file.
std::vector<Finding> lint_texts(
    const std::vector<std::pair<std::string, std::string>>& sources);

/// Lint one translation unit. `path` classifies the file (rules scope
/// themselves by directory) and labels findings; `text` is the file content.
std::vector<Finding> lint_text(const std::string& path, const std::string& text);

/// Recursively collect the .cpp/.hpp/.h/.cc files under `paths` (relative to
/// `root`), skipping build trees, .git, and lint fixtures, in sorted order.
/// Throws std::invalid_argument naming a path that is neither a file nor a
/// directory.
std::vector<std::string> collect_sources(const std::string& root,
                                         const std::vector<std::string>& paths);

/// Full CLI: returns the process exit code (0 clean, 1 findings, 2 error).
int run_cli(int argc, const char* const* argv);

}  // namespace xl::lint
