#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>

namespace xl::lint {

namespace {

using Kind = Token::Kind;

bool path_has(const std::string& path, const char* piece) {
  return path.find(piece) != std::string::npos;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool in_src_or_tools(const std::string& path) {
  return path_has(path, "src/") || path_has(path, "tools/");
}

/// The name when t[i..i+2] spells `std::name` with `name` in `names`.
const std::string* std_name(const Tokens& t, std::size_t i,
                            const std::set<std::string>& names) {
  if (t[i].text != "std" || !tok_is(t, i + 1, "::") || i + 2 >= t.size() ||
      !names.count(t[i + 2].text)) {
    return nullptr;
  }
  return &t[i + 2].text;
}

/// t[i] is a call of the free function `name`: not `x.name(`, `x->name(` or
/// `ns::name(` -- though `std::name(` counts when `allow_std` is set.
bool free_call(const Tokens& t, std::size_t i, const char* name, bool allow_std) {
  if (t[i].text != name || !tok_is(t, i + 1, "(")) return false;
  const auto qualifies = [&](std::size_t k) {
    const std::string& x = t[k].text;
    return x == "::" || x == ":" || x == "." || x == "->" || x == ">";
  };
  if (i == 0 || !qualifies(i - 1)) return true;
  return allow_std && i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std" &&
         (i == 2 || !qualifies(i - 3));
}

/// Scan `[b, e)` for simple declarations `Type name` where Type's last
/// identifier is in `type_words` (e.g. unordered_set, double); records
/// name -> type word.
void collect_typed_locals(const Tokens& t, std::size_t b, std::size_t e,
                          const std::set<std::string>& type_words,
                          std::map<std::string, std::string>& out) {
  for (std::size_t i = b; i + 1 < e; ++i) {
    if (t[i].kind != Kind::Ident || !type_words.count(t[i].text)) continue;
    std::size_t j = i + 1;
    if (tok_is(t, j, "<")) {
      const std::size_t past = try_match_angles(t, j, e);
      if (past == j) continue;
      j = past;
    }
    while (j < e && (t[j].text == "&" || t[j].text == "*")) ++j;
    if (j < e && t[j].kind == Kind::Ident) {
      const std::string next = j + 1 < e ? t[j + 1].text : "";
      if (next == ";" || next == "=" || next == "{" || next == "(" ||
          next == "," || next == ")") {  // ')' / ',' cover parameter lists.
        out[t[j].text] = t[i].text;
      }
    }
  }
}

/// Locals declared in the body plus the function's parameters.
void collect_typed_locals_and_params(const Tokens& t, const FunctionModel& fn,
                                     const std::set<std::string>& type_words,
                                     std::map<std::string, std::string>& out) {
  collect_typed_locals(t, fn.body_open + 1, fn.body_close, type_words, out);
  if (fn.params_open < fn.params_close) {
    collect_typed_locals(t, fn.params_open + 1, fn.params_close + 1, type_words,
                         out);
  }
}

/// Statement boundaries: the token range around `at` delimited by ';' '{' '}'.
std::pair<std::size_t, std::size_t> statement_around(const Tokens& t,
                                                     std::size_t at,
                                                     std::size_t lo,
                                                     std::size_t hi) {
  std::size_t b = at;
  while (b > lo) {
    const std::string& x = t[b - 1].text;
    if (x == ";" || x == "{" || x == "}") break;
    --b;
  }
  std::size_t e = at;
  while (e < hi && t[e].text != ";" && t[e].text != "{" && t[e].text != "}") ++e;
  return {b, e};
}

const std::set<std::string> kFloatTypes = {"double", "float"};
const std::set<std::string> kUnordered = {"unordered_map", "unordered_set",
                                          "unordered_multimap", "unordered_multiset"};

// --- rule: wallclock ---------------------------------------------------------

// Any wall-clock read makes a timeline depend on the host; simulated time
// must come from the substrate clock.
void rule_wallclock(const FileModel& model, std::vector<Finding>& findings) {
  if (path_ends_with(model.path, "common/rng.hpp")) return;
  static const std::set<std::string> kChrono = {"chrono"};
  static const std::set<std::string> kClocks = {"system_clock", "steady_clock",
                                                "high_resolution_clock"};
  const Tokens& t = model.tokens;
  int last_line = 0;  // one finding per line.
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::string source = t[i].text;
    if (std_name(t, i, kChrono) && tok_is(t, i + 3, "::") && i + 4 < t.size() &&
        kClocks.count(t[i + 4].text)) {
      source = "std::chrono::" + t[i + 4].text;
    } else if (source != "gettimeofday" && source != "clock_gettime") {
      continue;
    }
    if (t[i].line == last_line) continue;
    last_line = t[i].line;
    findings.push_back(Finding{
        model.path, t[i].line, "wallclock",
        "wall-clock source '" + source +
            "' breaks the determinism contract; use the substrate clock, or "
            "suppress with a reason if this is measurement-only output"});
  }
}

// --- rule: raw-random --------------------------------------------------------

// All randomness must flow from a seeded xl::Rng.
void rule_raw_random(const FileModel& model, std::vector<Finding>& findings) {
  if (path_ends_with(model.path, "common/rng.hpp")) return;
  static const std::set<std::string> kStdSources = {
      "random_device", "mt19937", "default_random_engine", "minstd_rand"};
  const Tokens& t = model.tokens;
  std::set<int> flagged;  // one finding per line.
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::string source;
    if (const std::string* name = std_name(t, i, kStdSources)) {
      source = "std::" + *name;
    } else if (t[i].text == "drand48" || t[i].text == "lrand48") {
      source = t[i].text;
    }
    if (source.empty() || !flagged.insert(t[i].line).second) continue;
    findings.push_back(Finding{
        model.path, t[i].line, "raw-random",
        "nondeterministic randomness source '" + source +
            "'; derive a seeded xl::Rng (common/rng.hpp) via split() instead"});
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    if ((free_call(t, i, "rand", false) || free_call(t, i, "srand", false)) &&
        flagged.insert(t[i].line).second) {
      findings.push_back(Finding{
          model.path, t[i].line, "raw-random",
          "C rand()/srand() is global, unseeded state; use a seeded xl::Rng "
          "(common/rng.hpp)"});
    }
  }
}

// --- rule: unordered-iter ----------------------------------------------------

/// In src/runtime, src/cluster and src/workflow the accumulation order reaches
/// the timeline: every range-for or .begin() over an unordered container
/// declared in the file is a finding.
void flag_unordered_iteration(const FileModel& model, std::vector<Finding>& findings) {
  const Tokens& t = model.tokens;
  std::map<std::string, std::string> names;
  collect_typed_locals(t, 0, t.size(), kUnordered, names);
  for (const ClassModel& cls : model.classes) {
    for (const Member& m : cls.members) {
      if (m.type.find("unordered_") != std::string::npos) names[m.name] = m.type;
    }
  }
  if (names.empty()) return;
  const auto flag = [&](int line, const std::string& name) {
    findings.push_back(Finding{
        model.path, line, "unordered-iter",
        "iteration over unordered container '" + name +
            "' is hash-order dependent; iterate sorted keys or use an "
            "ordered container on this path"});
  };
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].text == "for" && t[i + 1].text == "(") {
      // Range-for whose range is a bare name: `for (decl : name)`.
      std::size_t j = i + 2;
      while (j < t.size() && t[j].text != ")" && t[j].text != "(" && t[j].text != ";") {
        ++j;
      }
      if (tok_is(t, j, ")") && t[j - 2].text == ":" && names.count(t[j - 1].text)) {
        flag(t[i].line, t[j - 1].text);
      }
    }
    if (names.count(t[i].text) && t[i + 1].text == "." &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin") &&
        t[i + 3].text == "(") {
      flag(t[i].line, t[i].text);
    }
  }
}

bool range_contains_ident(const Tokens& t, std::size_t b, std::size_t e,
                          const std::string& name) {
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind == Kind::Ident && t[i].text == name) return true;
  }
  return false;
}

/// Is `dest` sorted anywhere in [b, e)? Looks for sort/stable_sort with dest
/// among its arguments.
bool sorted_later(const Tokens& t, std::size_t b, std::size_t e,
                  const std::string& dest) {
  for (std::size_t i = b; i + 1 < e; ++i) {
    if (t[i].kind != Kind::Ident ||
        (t[i].text != "sort" && t[i].text != "stable_sort")) {
      continue;
    }
    if (!tok_is(t, i + 1, "(")) continue;
    const std::size_t past = match_group(t, i + 1, e, "(", ")");
    if (range_contains_ident(t, i + 2, past, dest)) return true;
  }
  return false;
}

bool is_sink_call_name(const std::string& name) {
  return name.rfind("write", 0) == 0 || name == "on_event" ||
         name == "observer" || name == "record" || name == "append" ||
         name == "emit";
}

/// Elsewhere under src/ and tools/ only hash-ordered results that escape a
/// function unsorted are findings: returned, streamed, handed to a sink,
/// summed into a float, or appended to a never-sorted sequence.
void flag_unordered_escape(const FileModel& model, std::vector<Finding>& findings) {
  const Tokens& t = model.tokens;
  for (const FunctionModel& fn : model.functions) {
    const std::size_t b = fn.body_open + 1, e = fn.body_close;
    std::map<std::string, std::string> unordered;
    collect_typed_locals_and_params(t, fn, kUnordered, unordered);
    if (const ClassModel* cls = model.enclosing_class(fn.body_open)) {
      for (const Member& m : cls->members) {
        if (m.type.find("unordered_") != std::string::npos) {
          unordered[m.name] = "unordered_member";
        }
      }
    }
    if (unordered.empty()) continue;
    std::map<std::string, std::string> float_locals;
    collect_typed_locals_and_params(t, fn, kFloatTypes, float_locals);
    std::map<std::string, std::string> ordered_locals;
    static const std::set<std::string> kOrdered = {"set", "map", "multiset",
                                                   "multimap"};
    collect_typed_locals(t, b, e, kOrdered, ordered_locals);

    // Escape shape 1: name.begin()/cbegin() feeding a return or an unsorted
    // ordered-sequence construction.
    for (std::size_t i = b; i + 2 < e; ++i) {
      if (t[i].kind != Kind::Ident || !unordered.count(t[i].text)) continue;
      if (t[i + 1].text != "." && t[i + 1].text != "->") continue;
      if (t[i + 2].text != "begin" && t[i + 2].text != "cbegin") continue;
      const std::string& name = t[i].text;
      const auto [sb, se] = statement_around(t, i, b, e);
      bool is_return = false;
      for (std::size_t k = sb; k < se; ++k) {
        if (t[k].text == "return") is_return = true;
      }
      if (is_return) {
        findings.push_back(Finding{
            model.path, t[i].line, "unordered-iter",
            "hash-ordered contents of '" + name +
                "' escape through a return value; copy into a vector and sort "
                "(or use an ordered container) before returning"});
        continue;
      }
      // Construction/assignment destination: ident before '=' or before the
      // '(' / '{' group holding the .begin().
      std::string dest;
      for (std::size_t k = sb; k < se; ++k) {
        if (t[k].text == "=" && k > sb && t[k - 1].kind == Kind::Ident) {
          dest = t[k - 1].text;
          break;
        }
        if ((t[k].text == "(" || t[k].text == "{") && k > sb &&
            t[k - 1].kind == Kind::Ident && k < i) {
          dest = t[k - 1].text;
        }
      }
      if (dest.empty()) continue;
      if (ordered_locals.count(dest)) continue;  // feeding a std::set/map: fine.
      if (unordered.count(dest)) continue;       // unordered-to-unordered: no escape.
      if (sorted_later(t, se, e, dest)) continue;
      findings.push_back(Finding{
          model.path, t[i].line, "unordered-iter",
          "hash-ordered contents of '" + name + "' copied into '" + dest +
              "' which is never sorted in this function; sort it before it "
              "escapes"});
    }

    // Escape shape 2: range-for over the container with an order-sensitive
    // body (stream <<, observer/CSV sink call, float accumulation, or an
    // unsorted collection append).
    for (std::size_t i = b; i < e; ++i) {
      if (t[i].kind != Kind::Ident || t[i].text != "for") continue;
      if (!tok_is(t, i + 1, "(")) continue;
      const std::size_t head_end = match_group(t, i + 1, e, "(", ")");
      std::string name;
      for (std::size_t k = i + 2; k + 1 < head_end; ++k) {
        if (t[k].text == ":" && t[k + 1].kind == Kind::Ident &&
            unordered.count(t[k + 1].text) && k + 2 + 1 >= head_end) {
          name = t[k + 1].text;
        }
      }
      if (name.empty()) continue;
      std::size_t body_b = head_end, body_e;
      if (tok_is(t, head_end, "{")) {
        body_e = match_group(t, head_end, e, "{", "}");
        body_b = head_end + 1;
      } else {
        const auto stmt = statement_around(t, head_end, b, e);
        body_e = stmt.second;
      }
      const int line = t[i].line;
      for (std::size_t k = body_b; k < body_e; ++k) {
        const Token& tok = t[k];
        if (tok.text == "<<") {
          findings.push_back(Finding{
              model.path, line, "unordered-iter",
              "iteration over '" + name +
                  "' streams (<<) in hash order; iterate a sorted copy so the "
                  "output is deterministic"});
          break;
        }
        if (tok.kind == Kind::Ident && is_sink_call_name(tok.text) &&
            tok_is(t, k + 1, "(")) {
          findings.push_back(Finding{
              model.path, line, "unordered-iter",
              "iteration over '" + name + "' reaches sink '" + tok.text +
                  "' in hash order; iterate a sorted copy so delivery order is "
                  "deterministic"});
          break;
        }
        if ((tok.text == "+=" || tok.text == "-=") && k > body_b &&
            t[k - 1].kind == Kind::Ident &&
            float_locals.count(t[k - 1].text)) {
          findings.push_back(Finding{
              model.path, line, "unordered-iter",
              "iteration over '" + name + "' accumulates into float '" +
                  t[k - 1].text +
                  "' in hash order; sum over a sorted copy (float addition is "
                  "not associative)"});
          break;
        }
        if (tok.kind == Kind::Ident &&
            (tok.text == "push_back" || tok.text == "emplace_back") &&
            k >= body_b + 2 && t[k - 1].text == "." &&
            t[k - 2].kind == Kind::Ident) {
          const std::string& dest = t[k - 2].text;
          if (!ordered_locals.count(dest) && !unordered.count(dest) &&
              !sorted_later(t, body_e, e, dest)) {
            findings.push_back(Finding{
                model.path, line, "unordered-iter",
                "iteration over '" + name + "' appends to '" + dest +
                    "' in hash order and '" + dest +
                    "' is never sorted in this function; sort it before it "
                    "escapes"});
            break;
          }
        }
      }
    }
  }
}

void rule_unordered_iter(const FileModel& model, std::vector<Finding>& findings) {
  if (path_has(model.path, "src/runtime") || path_has(model.path, "src/cluster") ||
      path_has(model.path, "src/workflow")) {
    flag_unordered_iteration(model, findings);
  } else if (in_src_or_tools(model.path)) {
    flag_unordered_escape(model, findings);
  }
}

// --- rule: float-cast --------------------------------------------------------

/// Does [b, e) look floating point: a double/float-named identifier, a
/// decimal literal, or a std:: rounding/transcendental call?
bool floatish(const Tokens& t, std::size_t b, std::size_t e) {
  static const char* kMath[] = {"floor", "ceil", "round", "pow",
                                "sqrt",  "log",  "exp",   "lround"};
  for (std::size_t k = b; k < e; ++k) {
    const std::string& x = t[k].text;
    if (t[k].kind == Kind::Ident &&
        (x.find("double") != std::string::npos || x.find("float") != std::string::npos)) {
      return true;
    }
    for (std::size_t d = 1; t[k].kind == Kind::Number && d + 1 < x.size(); ++d) {
      if (x[d] == '.' && std::isdigit(static_cast<unsigned char>(x[d - 1])) &&
          std::isdigit(static_cast<unsigned char>(x[d + 1]))) {
        return true;
      }
    }
    if (x == "std" && tok_is(t, k + 1, "::") && k + 2 < e) {
      for (const char* f : kMath) {
        if (t[k + 2].text.rfind(f, 0) == 0) return true;
      }
    }
  }
  return false;
}

// Raw static_cast from floating point to integer is UB on NaN and
// out-of-range values (the Histogram bug class); conversions must go through
// the guarded helpers in common/contract.hpp.
void rule_float_cast(const FileModel& model, std::vector<Finding>& findings) {
  if (path_ends_with(model.path, "common/contract.hpp")) return;
  static const std::set<std::string> kIntegral = {
      "int",      "long",     "longlong", "short",    "char",     "unsigned",
      "unsignedint", "unsignedlong", "unsignedlonglong", "size_t", "ptrdiff_t",
      "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",  "uint16_t",
      "uint32_t", "uint64_t",
  };
  const Tokens& t = model.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "static_cast" || t[i + 1].text != "<") continue;
    const std::size_t close = try_match_angles(t, i + 1, t.size());
    if (close == i + 1 || !tok_is(t, close, "(")) continue;
    std::string type;
    for (std::size_t k = i + 2; k + 1 < close; ++k) type += t[k].text;
    if (type.rfind("std::", 0) == 0) type.erase(0, 5);
    if (!kIntegral.count(type)) continue;
    if (floatish(t, close + 1, match_group(t, close, t.size(), "(", ")") - 1)) {
      findings.push_back(Finding{
          model.path, t[i].line, "float-cast",
          "raw static_cast<" + type +
              "> from a floating-point expression; use xl::f2i/xl::f2s "
              "(common/contract.hpp) or clamp first and suppress"});
    }
  }
}

// --- rule: parallel-merge ----------------------------------------------------

/// Is `name` declared in [b, e): `Type name`, `Type<args> name` or `auto& name`
/// followed by `;` `=` `{` or `(`?
bool declared_in(const Tokens& t, std::size_t b, std::size_t e,
                 const std::string& name) {
  for (std::size_t p = b + 1; p + 1 < e; ++p) {
    const std::string& next = t[p + 1].text;
    if (t[p].text != name || (next != ";" && next != "=" && next != "{" && next != "(")) {
      continue;
    }
    std::size_t q = p - 1;
    while (q > b && (t[q].text == "&" || t[q].text == "&&")) --q;
    if (t[q].text == ">" && q > b) {  // a flat template argument list.
      do {
        --q;
      } while (q > b && t[q].text != "<" && t[q].text != ">" && t[q].text != ";");
      if (q == b || t[q].text != "<") continue;
      --q;
    }
    if (t[q].kind == Kind::Ident) return true;
  }
  return false;
}

/// Shared-container mutation in the parallel body [b, e): `name.push_back(...)`
/// (or emplace_back/insert/emplace) on a container the body does not declare.
/// Reported at the parallel call `call`.
void flag_shared_mutation(const FileModel& model, const Token& call, std::size_t b,
                          std::size_t e, std::vector<Finding>& findings) {
  static const std::set<std::string> kMutators = {"push_back", "emplace_back",
                                                  "insert", "emplace"};
  const Tokens& t = model.tokens;
  for (std::size_t k = b + 2; k + 1 < e; ++k) {
    if (!kMutators.count(t[k].text) || t[k + 1].text != "(" || t[k - 1].text != "." ||
        t[k - 2].kind != Kind::Ident || declared_in(t, b, e, t[k - 2].text)) {
      continue;
    }
    findings.push_back(Finding{
        model.path, call.line, "parallel-merge",
        call.text + " body mutates shared container '" + t[k - 2].text + "' (." +
            t[k].text +
            "); give each chunk its own slot and merge the slots in chunk order "
            "after the loop"});
  }
}

/// Float accumulation in the parallel body [b, e) into a float declared
/// outside it: a local of the enclosing function before the lambda at `lam`,
/// a parameter, or a member of the enclosing class.
void flag_outer_float_accumulation(const FileModel& model, std::size_t lam,
                                   std::size_t b, std::size_t e,
                                   std::vector<Finding>& findings) {
  const Tokens& t = model.tokens;
  std::map<std::string, std::string> lambda_floats;
  collect_typed_locals(t, b, e, kFloatTypes, lambda_floats);
  std::map<std::string, std::string> outer_floats;
  if (const FunctionModel* fn = model.enclosing_function(lam)) {
    collect_typed_locals(t, fn->body_open + 1, lam, kFloatTypes, outer_floats);
    if (fn->params_open < fn->params_close) {
      collect_typed_locals(t, fn->params_open + 1, fn->params_close + 1, kFloatTypes,
                           outer_floats);
    }
    if (const ClassModel* cls = model.enclosing_class(fn->body_open)) {
      for (const Member& m : cls->members) {
        if (m.type.find("double") != std::string::npos ||
            m.type.find("float") != std::string::npos) {
          outer_floats[m.name] = m.type;
        }
      }
    }
  }
  const auto flag = [&](const Token& var) {
    findings.push_back(Finding{
        model.path, var.line, "parallel-merge",
        "floating-point accumulation into '" + var.text +
            "' inside a parallel_for body runs in nondeterministic chunk "
            "order; accumulate per-chunk partials (parts[c]) and merge in "
            "chunk order after the loop"});
  };
  for (std::size_t k = b; k < e; ++k) {
    if (t[k].text == "+=" || t[k].text == "-=") {
      if (k == b) continue;
      const Token& lhs = t[k - 1];
      if (lhs.text == "]") continue;  // parts[c] += ...: per-chunk slot.
      if (lhs.kind != Kind::Ident) continue;
      if (lambda_floats.count(lhs.text)) continue;  // lambda-local: fine.
      if (outer_floats.count(lhs.text)) flag(lhs);
      continue;
    }
    // x = x + ... on an outer float.
    if (t[k].text == "=" && k > b && k + 2 < e && t[k - 1].kind == Kind::Ident &&
        t[k + 1].kind == Kind::Ident && t[k + 1].text == t[k - 1].text &&
        t[k + 2].text == "+" && !lambda_floats.count(t[k - 1].text) &&
        outer_floats.count(t[k - 1].text)) {
      flag(t[k - 1]);
    }
  }
}

// A parallel_for / parallel_for_chunks body runs its chunks in any order on
// any thread. Mutating a shared container there is a race and -- even with
// locking -- an ordering leak; accumulating into a float declared outside the
// body makes the sum depend on the chunk interleaving. Per-chunk results go
// into per-chunk slots (parts[c]) merged in chunk order after the loop.
void rule_parallel_merge(const FileModel& model, std::vector<Finding>& findings) {
  const Tokens& t = model.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "parallel_for" && t[i].text != "parallel_for_chunks") continue;
    // Skip declarations ("void parallel_for(...)").
    if (!tok_is(t, i + 1, "(") || (i > 0 && t[i - 1].text == "void")) continue;
    const std::size_t call_end = match_group(t, i + 1, t.size(), "(", ")");
    // The first lambda in the argument list: [captures](params) { body }.
    std::size_t lam = i + 2;
    while (lam < call_end && t[lam].text != "[") ++lam;
    std::size_t open = match_group(t, lam, call_end, "[", "]");
    if (tok_is(t, open, "(")) open = match_group(t, open, call_end, "(", ")");
    while (open < call_end && t[open].text != "{") ++open;
    if (open < call_end) {
      const std::size_t close = match_group(t, open, call_end, "{", "}") - 1;
      flag_shared_mutation(model, t[i], open + 1, close, findings);
      flag_outer_float_accumulation(model, lam, open + 1, close, findings);
    }
    i = call_end - 1;
  }
}

// --- rule: missing-include ---------------------------------------------------

// The curated symbol -> header pairs that have bitten this repo before (the
// threading change shipped a missing <limits> twice).
void rule_missing_include(const FileModel& model, std::vector<Finding>& findings) {
  struct Owner {
    const char* header;
    std::set<std::string> names;
    const char* next;  ///< characters one of which must follow ("" = any).
  };
  static const Owner kOwners[] = {
      {"limits", {"numeric_limits"}, ""},
      {"cmath",
       {"sqrt", "pow", "floor", "ceil", "isnan", "isfinite", "log", "log2", "exp",
        "lround", "hypot", "cbrt", "sin", "cos", "fabs", "atan", "atan2"},
       "("},
      {"cstdint",
       {"int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t", "uint32_t",
        "uint64_t"},
       ""},
      {"algorithm",
       {"sort", "stable_sort", "min", "max", "clamp", "transform", "fill", "copy",
        "lower_bound", "upper_bound", "min_element", "max_element", "nth_element",
        "all_of", "any_of", "none_of", "find_if", "remove_if", "partial_sort",
        "rotate", "unique", "reverse"},
       "(<"},
      {"numeric", {"accumulate", "iota", "reduce", "inner_product", "partial_sum"}, "(<"},
      {"sstream", {"stringstream", "istringstream", "ostringstream"}, ""},
      {"charconv", {"to_chars", "from_chars", "chars_format"}, ""},
  };
  const Tokens& t = model.tokens;
  for (const Owner& owner : kOwners) {
    if (model.includes.count(owner.header)) continue;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const std::string* name = std_name(t, i, owner.names);
      if (!name) continue;
      const std::string next = i + 3 < t.size() ? t[i + 3].text : "";
      if (*owner.next && (next.size() != 1 || !std::strchr(owner.next, next[0]))) {
        continue;
      }
      findings.push_back(Finding{model.path, t[i].line, "missing-include",
                                 "uses std::" + *name + " but does not include <" +
                                     owner.header +
                                     "> (transitive includes are not a contract)"});
      break;
    }
  }
}

// --- rule: banned-symbol -----------------------------------------------------

// Environment and process escapes make behaviour depend on the host;
// configuration must flow through the config file / CLI layer.
void rule_banned_symbol(const FileModel& model, std::vector<Finding>& findings) {
  static const std::set<std::string> kSleeps = {"sleep_for", "sleep_until", "usleep",
                                                "setenv"};
  const Tokens& t = model.tokens;
  std::set<std::pair<int, int>> flagged;  // (line, kind): one finding each.
  for (std::size_t i = 0; i < t.size(); ++i) {
    int kind = 0;
    std::string message;
    if (free_call(t, i, "getenv", true)) {
      message =
          "getenv makes behaviour depend on the host environment; plumb the value "
          "through the config/CLI layer (or suppress at the single sanctioned "
          "read site)";
    } else if (free_call(t, i, "system", true)) {
      kind = 1;
      message = "system() shells out; spawn nothing from library code";
    } else if (kSleeps.count(t[i].text)) {
      kind = 2;
      message = "'" + t[i].text +
                "' introduces host-timing dependence; coordinate via condition "
                "variables or the substrate clock";
    } else {
      continue;
    }
    if (flagged.insert({t[i].line, kind}).second) {
      findings.push_back(Finding{model.path, t[i].line, "banned-symbol", message});
    }
  }
}

// --- rule: fab-by-value ------------------------------------------------------

// Fab and StagedObject own whole-field payload buffers; a pass-by-value
// parameter deep-copies megabytes per call. Payloads move (Fab&&), borrow
// (const Fab&), or share (std::shared_ptr<const Fab>).
void rule_fab_by_value(const FileModel& model, std::vector<Finding>& findings) {
  const Tokens& t = model.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    const std::string& type = t[i].text;
    if (type != "Fab" && type != "StagedObject") continue;
    // Parameter position: '(' or ',' before the (NS::-qualified) type. This
    // also skips statement declarations and template arguments.
    std::size_t q = i;
    while (q > 0 && t[q - 1].text == "::") {
      --q;
      if (q > 0 && t[q - 1].kind == Kind::Ident) --q;
    }
    if (q == 0 || (t[q - 1].text != "(" && t[q - 1].text != ",")) continue;
    // By-value shape: type, a parameter name, then ',' or ')'. References,
    // pointers, and template uses (&, *, <, >) never match this.
    if (t[i + 1].kind != Kind::Ident || (t[i + 2].text != "," && t[i + 2].text != ")")) {
      continue;
    }
    findings.push_back(Finding{
        model.path, t[i].line, "fab-by-value",
        "parameter '" + t[i + 1].text + "' takes " + type +
            " by value, deep-copying the whole payload; pass const " + type + "&, " +
            type + "&&, or share via std::shared_ptr<const " + type + ">"});
  }
}

// --- rule: row-loop ----------------------------------------------------------

// A BoxIterator loop whose body feeds the dereferenced iterator straight into
// a Fab-style accessor (`fab(*it, c)`) re-derives and bounds-checks the flat
// index for every cell; in the analysis/viz hot paths that arithmetic
// dominates the loop. Hoist row pointers (Fab::row + mesh::for_each_row)
// instead. Advisory: deliberately scalar loops bound by the determinism
// contract carry an allow(row-loop) marker with the reason.
void rule_row_loop(const FileModel& model, std::vector<Finding>& findings) {
  if (!path_has(model.path, "src/analysis") && !path_has(model.path, "src/viz")) return;
  const Tokens& t = model.tokens;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    // Only loop declarations: "for (BoxIterator it(...); ...)".
    if (t[i].text != "BoxIterator" || t[i - 1].text != "(" ||
        t[i + 1].kind != Kind::Ident) {
      continue;
    }
    const std::string& it = t[i + 1].text;
    const std::size_t head_end = match_group(t, i - 1, t.size(), "(", ")");
    // Loop body: a braced block, or a single statement up to ';'.
    std::size_t body_end = head_end;
    if (tok_is(t, head_end, "{")) {
      body_end = match_group(t, head_end, t.size(), "{", "}");
    } else {
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
      body_end = std::min(body_end + 1, t.size());
    }
    // Accessor shape: `name(*it` where `name` is NOT preceded by another
    // identifier (that shape is a declaration like `Box cell(*it, *it)`).
    for (std::size_t k = head_end; k + 3 < body_end; ++k) {
      if (t[k].kind == Kind::Ident && t[k + 1].text == "(" && t[k + 2].text == "*" &&
          t[k + 3].text == it && t[k - 1].kind != Kind::Ident) {
        findings.push_back(Finding{
            model.path, t[k].line, "row-loop",
            "per-cell accessor '" + t[k].text + "(*" + it +
                ", ...)' in a BoxIterator loop re-derives the flat index every "
                "cell; hoist Fab::row pointers with mesh::for_each_row (or "
                "suppress with the reason the loop must stay scalar)"});
        break;  // one finding per loop is enough to point at the rewrite
      }
    }
    i = body_end - 1;
  }
}

// --- rule: unguarded-field ---------------------------------------------------

void rule_unguarded_field(const FileModel& model, std::vector<Finding>& findings) {
  if (!in_src_or_tools(model.path)) return;
  for (const ClassModel& cls : model.classes) {
    if (!cls.has_mutex()) continue;
    for (const Member& m : cls.members) {
      if (m.is_mutex || m.is_exempt || m.is_guarded || m.is_marked_unguarded) {
        continue;
      }
      findings.push_back(Finding{
          model.path, m.line, "unguarded-field",
          "class '" + cls.name + "' owns a mutex but field '" + m.name +
              "' is neither XL_GUARDED_BY a capability nor XL_UNGUARDED(reason)"});
    }
  }
}

// --- rule: lock-order --------------------------------------------------------

/// The class-ish identifier a member/local type string resolves to: the last
/// identifier in `type` that names a class in the symbol table.
std::string resolve_type_class(const std::string& type, const SymbolTable& table) {
  std::string best, cur;
  for (std::size_t i = 0; i <= type.size(); ++i) {
    const char c = i < type.size() ? type[i] : '\0';
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      cur += c;
    } else {
      if (!cur.empty() && table.classes.count(cur)) best = cur;
      cur.clear();
    }
  }
  return best;
}

/// Split a whitespace-free lock expression on '.' / '->'.
std::vector<std::string> split_expr(const std::string& expr) {
  std::vector<std::string> parts;
  std::string cur;
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (expr[i] == '.') {
      parts.push_back(cur);
      cur.clear();
    } else if (expr[i] == '-' && i + 1 < expr.size() && expr[i + 1] == '>') {
      parts.push_back(cur);
      cur.clear();
      ++i;
    } else {
      cur += expr[i];
    }
  }
  parts.push_back(cur);
  return parts;
}

/// Type (class name) of `name` as a local in `fn`, via `Type name` decls whose
/// Type is a known class.
std::string local_class_type(const Tokens& t, const FunctionModel& fn,
                             const std::string& name, const SymbolTable& table) {
  for (std::size_t i = fn.body_open + 1; i + 1 < fn.body_close; ++i) {
    if (t[i].kind != Kind::Ident || !table.classes.count(t[i].text)) continue;
    std::size_t j = i + 1;
    while (j < fn.body_close && (t[j].text == "&" || t[j].text == "*")) ++j;
    if (j < fn.body_close && t[j].kind == Kind::Ident && t[j].text == name) {
      return t[i].text;
    }
  }
  return "";
}

std::string canonical_lock(const std::string& raw_expr, const FunctionModel& fn,
                           const FileModel& model, const SymbolTable& table) {
  std::string expr = raw_expr;
  if (expr.rfind("this->", 0) == 0) expr = expr.substr(6);
  if (!expr.empty() && expr[0] == '&') expr = expr.substr(1);
  if (!expr.empty() && expr[0] == '*') expr = expr.substr(1);
  const std::vector<std::string> parts = split_expr(expr);
  if (parts.size() == 1) {
    const std::string& p = parts[0];
    if (!fn.class_name.empty() && table.find_member(fn.class_name, p)) {
      return fn.class_name + "::" + p;
    }
    return model.path + "::" + p;
  }
  const std::string& recv = parts[parts.size() - 2];
  const std::string& mem = parts[parts.size() - 1];
  std::string recv_class;
  if (!fn.class_name.empty()) {
    if (const Member* m = table.find_member(fn.class_name, recv)) {
      recv_class = resolve_type_class(m->type, table);
    }
  }
  if (recv_class.empty()) {
    recv_class = local_class_type(model.tokens, fn, recv, table);
  }
  if (!recv_class.empty()) return recv_class + "::" + mem;
  return model.path + "::" + expr;
}

struct Edge {
  std::string file;
  int line = 0;
  std::string via;  ///< human description of how the edge arises.
};

void rule_lock_order(const std::vector<FileModel>& models, const SymbolTable& table,
                     std::vector<Finding>& findings) {
  std::map<std::string, std::map<std::string, Edge>> graph;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const std::string& file, int line,
                            const std::string& via) {
    if (from == to) {
      // Self-edge: immediate double acquisition; report directly.
      findings.push_back(Finding{
          file, line, "lock-order",
          "lock '" + from + "' acquired while already held (" + via + ")"});
      return;
    }
    graph[from].emplace(to, Edge{file, line, via});
    (void)graph[to];  // ensure every node exists.
  };

  // Pass 1: canonicalize and add intra-function nesting edges.
  std::map<const Acquisition*, std::string> canon;
  for (const FileModel& model : models) {
    for (const FunctionModel& fn : model.functions) {
      for (const Acquisition& acq : fn.acquisitions) {
        canon[&acq] = canonical_lock(acq.expr, fn, model, table);
      }
    }
  }
  const auto held_canonical = [&](const FunctionModel& fn,
                                  const std::string& held_expr) -> std::string {
    for (const Acquisition& h : fn.acquisitions) {
      if (h.expr == held_expr) return canon[&h];
    }
    return "";
  };
  for (const FileModel& model : models) {
    for (const FunctionModel& fn : model.functions) {
      for (const Acquisition& acq : fn.acquisitions) {
        for (const std::string& held_expr : acq.held) {
          const std::string held = held_canonical(fn, held_expr);
          if (held.empty()) continue;
          add_edge(held, canon[&acq], model.path, acq.line,
                   "'" + acq.expr + "' acquired under '" + held_expr + "' in " +
                       (fn.class_name.empty() ? fn.name
                                              : fn.class_name + "::" + fn.name));
        }
      }
    }
  }

  // Pass 2: one level of call propagation -- a call made under a lock inherits
  // the callee's top-level acquisitions.
  for (const FileModel& model : models) {
    for (const FunctionModel& fn : model.functions) {
      for (const CallSite& call : fn.locked_calls) {
        // Resolve the callee: by receiver type, else own class, else a
        // globally unique free function of that name.
        std::vector<const FunctionModel*> callees;
        const auto it = table.functions.find(call.name);
        if (it == table.functions.end()) continue;
        if (!call.receiver.empty()) {
          std::string recv_class;
          if (!fn.class_name.empty()) {
            if (const Member* m = table.find_member(fn.class_name, call.receiver)) {
              recv_class = resolve_type_class(m->type, table);
            }
          }
          if (recv_class.empty()) {
            recv_class = local_class_type(model.tokens, fn, call.receiver, table);
          }
          if (recv_class.empty()) continue;
          for (const FunctionModel* cand : it->second) {
            if (cand->class_name == recv_class) callees.push_back(cand);
          }
        } else {
          for (const FunctionModel* cand : it->second) {
            if (!fn.class_name.empty() && cand->class_name == fn.class_name) {
              callees.push_back(cand);
            }
          }
          if (callees.empty() && it->second.size() == 1 &&
              it->second.front()->class_name.empty()) {
            callees.push_back(it->second.front());
          }
        }
        for (const FunctionModel* callee : callees) {
          if (callee == &fn) continue;
          for (const Acquisition& acq : callee->acquisitions) {
            if (!acq.top_level || canon[&acq].empty()) continue;
            for (const std::string& held_expr : call.held) {
              const std::string held = held_canonical(fn, held_expr);
              if (held.empty()) continue;
              add_edge(held, canon[&acq], model.path, call.line,
                       "call to '" + call.name + "' (which locks '" + acq.expr +
                           "') while holding '" + held_expr + "' in " +
                           (fn.class_name.empty()
                                ? fn.name
                                : fn.class_name + "::" + fn.name));
            }
          }
        }
      }
    }
  }

  // Cycle detection: DFS with colors; each distinct cycle reported once in
  // canonical rotation (lexicographically smallest node first).
  std::set<std::vector<std::string>> reported;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black.
  std::vector<std::string> path_stack;

  const std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    path_stack.push_back(node);
    const auto it = graph.find(node);
    if (it != graph.end()) {
      for (const auto& [next, edge] : it->second) {
        if (color[next] == 1) {
          // Back edge: extract the cycle from the stack.
          std::vector<std::string> cycle;
          bool in_cycle = false;
          for (const std::string& n : path_stack) {
            if (n == next) in_cycle = true;
            if (in_cycle) cycle.push_back(n);
          }
          if (cycle.empty()) continue;
          const auto min_it = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), min_it, cycle.end());
          if (!reported.insert(cycle).second) continue;
          std::string desc;
          for (const std::string& n : cycle) desc += n + " -> ";
          desc += cycle.front();
          findings.push_back(Finding{
              edge.file, edge.line, "lock-order",
              "lock acquisition order cycle: " + desc + " (" + edge.via + ")"});
        } else if (color[next] == 0) {
          dfs(next);
        }
      }
    }
    path_stack.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, _] : graph) {
    if (color[node] == 0) dfs(node);
  }
}

}  // namespace

void run_file_rules(const FileModel& model, std::vector<Finding>& findings) {
  rule_wallclock(model, findings);
  rule_raw_random(model, findings);
  rule_unordered_iter(model, findings);
  rule_float_cast(model, findings);
  rule_parallel_merge(model, findings);
  rule_missing_include(model, findings);
  rule_banned_symbol(model, findings);
  rule_fab_by_value(model, findings);
  rule_row_loop(model, findings);
  rule_unguarded_field(model, findings);
}

void run_lock_order_rule(const std::vector<FileModel>& models,
                         const SymbolTable& table,
                         std::vector<Finding>& findings) {
  rule_lock_order(models, table, findings);
}

}  // namespace xl::lint
