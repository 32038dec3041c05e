#include "model.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace xl::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool blank(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

/// `include <name>` (a directive's text after the '#') -> "name", else "".
std::string angle_include(const std::string& directive) {
  std::size_t i = directive.find_first_not_of(" \t");
  if (i == std::string::npos || directive.compare(i, 7, "include") != 0) return "";
  i = directive.find_first_not_of(" \t", i + 7);
  if (i == std::string::npos || directive[i] != '<') return "";
  const std::size_t close = directive.find('>', i);
  return close == std::string::npos ? "" : directive.substr(i + 1, close - i - 1);
}

/// Split `s` into the model's code tokens, comments, comment-only lines and
/// #include names. Comments, string/char literals and raw strings never
/// become tokens; neither do preprocessor lines (and their `\` continuations).
void lex(const std::string& s, FileModel& out) {
  const std::size_t n = s.size();
  int line = 1;
  bool at_line_start = true;  // no code yet on this line (comments aside).
  bool line_fresh = true;     // nothing but blanks yet on this line.
  bool in_directive = false;
  std::string directive;  // code text of the current preprocessor line.
  const auto newline = [&] {
    if (in_directive) {
      const std::string header = angle_include(directive);
      if (!header.empty()) out.includes.insert(header);
      in_directive = false;
      directive.clear();
    }
    ++line;
    at_line_start = line_fresh = true;
  };
  std::size_t i = 0;
  while (i < n) {
    const char c = s[i];
    const char next = i + 1 < n ? s[i + 1] : '\0';
    if (c == '\n') {
      newline();
      ++i;
    } else if (c == '\\' && next == '\n' && in_directive) {
      ++line;
      line_fresh = true;
      i += 2;
    } else if (blank(c)) {
      if (in_directive) directive += c;
      ++i;
    } else if (c == '/' && next == '/') {
      if (line_fresh) out.comment_only_lines.insert(line);
      const std::size_t end = std::min(s.find('\n', i), n);
      out.comments.push_back({line, s.substr(i + 2, end - i - 2)});
      i = end;
    } else if (c == '/' && next == '*') {
      line_fresh = false;
      std::string text;
      for (i += 2; i < n && s.compare(i, 2, "*/") != 0; ++i) {
        if (s[i] == '\n') {
          out.comments.push_back({line, std::move(text)});
          text.clear();
          newline();
          continue;
        }
        if (line_fresh && !blank(s[i])) {
          if (s.compare(i, 2, "//") == 0) out.comment_only_lines.insert(line);
          line_fresh = false;
        }
        text += s[i];
      }
      out.comments.push_back({line, std::move(text)});
      i = std::min(i + 2, n);
    } else if (c == '"' || c == '\'') {
      for (++i; i < n && s[i] != c; ++i) {
        if (s[i] == '\\' && i + 1 < n && s[i + 1] != '\n') ++i;
        else if (s[i] == '\n') newline();
      }
      line_fresh = false;
      i = std::min(i + 1, n);
    } else if (c == '#' && at_line_start) {
      line_fresh = at_line_start = false;
      in_directive = true;
      ++i;
    } else if (in_directive) {
      directive += c;
      ++i;
    } else {
      line_fresh = at_line_start = false;
      Token t;
      t.line = line;
      std::size_t j = i + 1;
      if (ident_start(c)) {
        t.kind = Token::Kind::Ident;
        while (j < n && ident_char(s[j])) ++j;
        t.text = s.substr(i, j - i);
        if (j < n && s[j] == '"' &&
            (t.text == "R" || t.text == "LR" || t.text == "uR" || t.text == "UR" ||
             t.text == "u8R")) {
          // Raw string R"delim( ... )delim": no token, just its lines.
          const std::size_t open = std::min(s.find('(', j), n);
          const std::string close = ")" + s.substr(j + 1, open - j - 1) + "\"";
          const std::size_t end = std::min(s.find(close, open), n);
          line += static_cast<int>(std::count(s.begin() + static_cast<std::ptrdiff_t>(j),
                                              s.begin() + static_cast<std::ptrdiff_t>(end),
                                              '\n'));
          i = std::min(end + close.size(), n);
          continue;
        }
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        t.kind = Token::Kind::Number;
        while (j < n && (ident_char(s[j]) || s[j] == '.' ||
                         ((s[j] == '+' || s[j] == '-') &&
                          (s[j - 1] == 'e' || s[j - 1] == 'E')) ||
                         (s[j] == '\'' && j + 1 < n && ident_char(s[j + 1])))) {
          ++j;
        }
        t.text = s.substr(i, j - i);
      } else {
        static const char* kTwo[] = {"::", "->", "+=", "-=", "*=", "/=", "==",
                                     "!=", "&&", "||", "++", "--", "<<"};
        t.text = std::string(1, c);
        for (const char* p : kTwo) {
          if (s.compare(i, 2, p) == 0) t.text = p;
        }
        j = i + t.text.size();
      }
      i = j;
      out.tokens.push_back(std::move(t));
    }
  }
  newline();  // closes a directive on the last line.
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while", "switch", "catch",  "return",
      "sizeof", "alignof", "new",  "delete", "else",   "do",
      "throw",  "case",    "goto", "static_assert", "decltype", "alignas",
  };
  return kw;
}

bool is_mutex_type_word(const std::string& w) {
  return w == "Mutex" || w == "mutex" || w == "shared_mutex" ||
         w == "recursive_mutex" || w == "timed_mutex" ||
         w == "recursive_timed_mutex";
}

bool is_exempt_type_word(const std::string& w) {
  return w == "atomic" || w == "atomic_bool" || w == "atomic_int" ||
         w == "atomic_flag" || w == "CondVar" || w == "condition_variable" ||
         w == "condition_variable_any" || w == "thread" || w == "jthread";
}

/// True for macro-style idents whose paren group should be skipped when
/// classifying declarations (annotation macros, attribute macros).
bool is_annotation_macro(const std::string& w) {
  return w.rfind("XL_", 0) == 0;
}

// --- class & member parsing --------------------------------------------------

struct ClassSpan {
  std::string name;
  std::size_t body_open = 0;   // index of '{'.
  std::size_t body_close = 0;  // index of '}'.
};

std::vector<ClassSpan> find_class_spans(const Tokens& t) {
  std::vector<ClassSpan> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::Ident ||
        (t[i].text != "class" && t[i].text != "struct")) {
      continue;
    }
    if (i > 0 && t[i - 1].text == "enum") continue;
    if (i > 0 && t[i - 1].text == "friend") continue;
    // Scan the header: skip annotation-macro groups, remember the last plain
    // identifier before '{' / ':' / ';'.
    std::size_t j = i + 1;
    std::string name;
    bool ok = false;
    while (j < t.size()) {
      const Token& tok = t[j];
      if (tok.kind == Token::Kind::Ident) {
        if (is_annotation_macro(tok.text) && j + 1 < t.size() &&
            t[j + 1].text == "(") {
          j = match_group(t, j + 1, t.size(), "(", ")");
          continue;
        }
        if (tok.text != "final" && tok.text != "alignas") name = tok.text;
        ++j;
        continue;
      }
      if (tok.text == "::") {  // qualified out-of-line definition.
        ++j;
        continue;
      }
      if (tok.text == "<") {  // template specialization args.
        const std::size_t after = try_match_angles(t, j, t.size());
        if (after == j) break;
        j = after;
        continue;
      }
      if (tok.text == ":") {  // base clause: skip to the body.
        while (j < t.size() && t[j].text != "{" && t[j].text != ";") {
          if (t[j].text == "<") {
            const std::size_t after = try_match_angles(t, j, t.size());
            j = after == j ? j + 1 : after;
          } else {
            ++j;
          }
        }
        continue;
      }
      if (tok.text == "{") {
        ok = !name.empty();
        break;
      }
      break;  // ';' (forward decl), '(' (function returning class), etc.
    }
    if (!ok) continue;
    ClassSpan span;
    span.name = name;
    span.body_open = j;
    const std::size_t past = match_group(t, j, t.size(), "{", "}");
    if (past == t.size() && (past == 0 || t[past - 1].text != "}")) continue;
    span.body_close = past - 1;
    out.push_back(std::move(span));
  }
  return out;
}

/// Analyze one depth-0 member statement (token index range [b, e)).
void classify_member_statement(const Tokens& t, std::size_t b, std::size_t e,
                               ClassModel& cls) {
  if (b >= e) return;
  const std::string& first = t[b].text;
  if (first == "using" || first == "typedef" || first == "friend" ||
      first == "template" || first == "static_assert" || first == "enum" ||
      first == "class" || first == "struct" || first == "explicit" ||
      first == "operator" || first == "virtual" || first == "~") {
    return;
  }

  // Build a filtered view: drop annotation-macro groups and template argument
  // lists; remember the annotations seen.
  Member m;
  std::vector<std::size_t> kept;  // token indices surviving the filter.
  for (std::size_t i = b; i < e;) {
    const Token& tok = t[i];
    if (tok.kind == Token::Kind::Ident && is_annotation_macro(tok.text) &&
        i + 1 < e && t[i + 1].text == "(") {
      if (tok.text == "XL_GUARDED_BY" || tok.text == "XL_PT_GUARDED_BY") {
        m.is_guarded = true;
      } else if (tok.text == "XL_UNGUARDED") {
        m.is_marked_unguarded = true;
      }
      i = match_group(t, i + 1, e, "(", ")");
      continue;
    }
    if (tok.text == "<") {
      const std::size_t past = try_match_angles(t, i, e);
      if (past != i) {
        // Template args vanish from the view, but exemption-relevant words
        // inside them still count (e.g. std::atomic<bool> via outer ident).
        i = past;
        continue;
      }
    }
    kept.push_back(i);
    ++i;
  }
  if (kept.empty()) return;

  // Any surviving '(' means this is a function declaration, not a member.
  for (std::size_t idx : kept) {
    if (t[idx].text == "(") return;
  }

  // Member name: the identifier directly followed (in the filtered view) by
  // end-of-statement, '=', '{', '[', or nothing (we trimmed the ';').
  std::size_t name_at = kept.size();
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const Token& tok = t[kept[k]];
    if (tok.kind != Token::Kind::Ident) continue;
    const bool last = k + 1 == kept.size();
    const std::string next = last ? "" : t[kept[k + 1]].text;
    if (last || next == "=" || next == "{" || next == "[") {
      name_at = k;
      break;
    }
  }
  if (name_at == kept.size()) return;
  m.name = t[kept[name_at]].text;
  m.line = t[kept[name_at]].line;

  // Type text and qualifiers from everything before the name.
  bool is_static = false, is_const = false, is_ref = false;
  for (std::size_t k = 0; k < name_at; ++k) {
    const Token& tok = t[kept[k]];
    if (tok.text == "static" || tok.text == "constexpr" || tok.text == "inline") {
      is_static = true;
      continue;
    }
    if (tok.text == "mutable") continue;
    if (tok.text == "const") is_const = true;
    if (tok.text == "&") is_ref = true;
    if (tok.kind == Token::Kind::Ident) {
      if (is_mutex_type_word(tok.text)) m.is_mutex = true;
      if (is_exempt_type_word(tok.text)) m.is_exempt = true;
    }
    if (!m.type.empty() && tok.kind == Token::Kind::Ident &&
        t[kept[k - 1]].kind == Token::Kind::Ident) {
      m.type += ' ';
    }
    m.type += tok.text;
  }
  if (m.name.empty() || m.type.empty()) return;
  if (is_static || is_const || is_ref) m.is_exempt = true;
  cls.members.push_back(std::move(m));
}

void parse_members(const Tokens& t, const ClassSpan& span, ClassModel& cls) {
  std::size_t i = span.body_open + 1;
  std::size_t stmt_begin = i;
  while (i < span.body_close) {
    const Token& tok = t[i];
    if (tok.kind == Token::Kind::Ident &&
        (tok.text == "public" || tok.text == "private" || tok.text == "protected") &&
        i + 1 < span.body_close && t[i + 1].text == ":") {
      i += 2;
      stmt_begin = i;
      continue;
    }
    if (tok.text == ";") {
      classify_member_statement(t, stmt_begin, i, cls);
      ++i;
      stmt_begin = i;
      continue;
    }
    if (tok.text == "{") {
      // Braced group at member depth: either an in-class-initializer (then a
      // ';' follows and the statement is a member) or a function/nested-class
      // body (then the statement is done and is not a member).
      const std::size_t past = match_group(t, i, span.body_close + 1, "{", "}");
      if (past < span.body_close && t[past].text == ";") {
        classify_member_statement(t, stmt_begin, i, cls);
        i = past + 1;
      } else {
        i = past;
      }
      stmt_begin = i;
      continue;
    }
    if (tok.text == "(") {  // skip argument lists wholesale.
      i = match_group(t, i, span.body_close + 1, "(", ")");
      continue;
    }
    if (tok.text == "<") {
      const std::size_t past = try_match_angles(t, i, span.body_close + 1);
      i = past == i ? i + 1 : past;
      continue;
    }
    ++i;
  }
}

// --- function body discovery -------------------------------------------------

std::vector<FunctionModel> find_functions(const Tokens& t,
                                          const std::vector<ClassSpan>& classes) {
  std::vector<FunctionModel> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::Ident) continue;
    if (control_keywords().count(t[i].text)) continue;
    if (is_annotation_macro(t[i].text)) continue;
    if (i + 1 >= t.size() || t[i + 1].text != "(") continue;

    const std::size_t after_params = match_group(t, i + 1, t.size(), "(", ")");
    if (after_params >= t.size()) continue;

    // Walk specifiers / trailing return / ctor-init-list up to '{' or a
    // disqualifier.
    std::size_t j = after_params;
    bool body = false;
    bool fail = false;
    while (j < t.size() && !body && !fail) {
      const Token& tok = t[j];
      if (tok.text == "{") {
        body = true;
        break;
      }
      if (tok.text == ";" || tok.text == "=" || tok.text == ",") {
        fail = true;  // declaration, `= default`, or a call in a list.
        break;
      }
      if (tok.kind == Token::Kind::Ident) {
        if (is_annotation_macro(tok.text) && j + 1 < t.size() &&
            t[j + 1].text == "(") {
          j = match_group(t, j + 1, t.size(), "(", ")");
          continue;
        }
        if (tok.text == "const" || tok.text == "noexcept" ||
            tok.text == "override" || tok.text == "final" || tok.text == "try") {
          ++j;
          if (tok.text == "noexcept" && j < t.size() && t[j].text == "(") {
            j = match_group(t, j, t.size(), "(", ")");
          }
          continue;
        }
        fail = true;  // some other identifier: this was a call or a decl.
        break;
      }
      if (tok.text == "->") {  // trailing return type.
        ++j;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";") {
          if (t[j].text == "<") {
            const std::size_t past = try_match_angles(t, j, t.size());
            j = past == j ? j + 1 : past;
          } else {
            ++j;
          }
        }
        continue;
      }
      if (tok.text == ":") {  // constructor initializer list.
        ++j;
        while (j < t.size()) {
          if (t[j].kind == Token::Kind::Ident || t[j].text == "::") {
            ++j;
            if (j < t.size() && t[j].text == "<") {
              const std::size_t past = try_match_angles(t, j, t.size());
              j = past == j ? j + 1 : past;
            }
            continue;
          }
          if (t[j].text == "(") {
            j = match_group(t, j, t.size(), "(", ")");
            continue;
          }
          if (t[j].text == "{") {
            // Brace-init of a member... or the body. A body brace follows a
            // ')' / '}' of the previous initializer or an identifier with no
            // pending initializer; disambiguate by what comes after the group.
            const std::size_t past = match_group(t, j, t.size(), "{", "}");
            if (past < t.size() && t[past].text == ",") {
              j = past;  // member{...}, -- keep walking the init list.
              continue;
            }
            // Heuristic: if the previous token closes an initializer, this
            // brace is the body.
            const std::string& prev = t[j - 1].text;
            if (prev == ")" || prev == "}") {
              body = true;
              break;
            }
            j = past;  // member{...} as the last initializer; body follows.
            continue;
          }
          if (t[j].text == ",") {
            ++j;
            continue;
          }
          break;
        }
        continue;
      }
      fail = true;
    }
    if (!body || j >= t.size()) continue;

    FunctionModel fn;
    fn.name = t[i].text;
    fn.params_open = i + 1;
    fn.params_close = after_params - 1;
    fn.body_open = j;
    fn.body_close = match_group(t, j, t.size(), "{", "}") - 1;
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == Token::Kind::Ident) {
      fn.class_name = t[i - 2].text;
    } else {
      for (const ClassSpan& c : classes) {
        if (i > c.body_open && i < c.body_close) fn.class_name = c.name;
      }
    }
    out.push_back(std::move(fn));
    // Do not skip the body: nested lambdas/local classes are rare and inner
    // spans are filtered below (an inner "function" inside another body would
    // be a control construct already excluded by keyword).
  }
  return out;
}

// --- lock acquisition & call scan -------------------------------------------

std::string join_tokens(const Tokens& t, std::size_t b, std::size_t e) {
  std::string out;
  for (std::size_t i = b; i < e; ++i) out += t[i].text;
  return out;
}

void scan_body(const Tokens& t, FunctionModel& fn) {
  struct Active {
    std::size_t acq_index;
    int depth;
  };
  std::vector<Active> stack;
  int depth = 0;
  for (std::size_t i = fn.body_open + 1; i < fn.body_close; ++i) {
    const Token& tok = t[i];
    if (tok.text == "{") {
      ++depth;
      continue;
    }
    if (tok.text == "}") {
      --depth;
      while (!stack.empty() && stack.back().depth > depth) stack.pop_back();
      continue;
    }
    if (tok.kind != Token::Kind::Ident) continue;

    const bool is_guard_decl =
        tok.text == "MutexLock" || tok.text == "lock_guard" ||
        tok.text == "unique_lock" || tok.text == "scoped_lock" ||
        tok.text == "shared_lock";
    if (is_guard_decl) {
      std::size_t j = i + 1;
      if (j < fn.body_close && t[j].text == "<") {
        const std::size_t past = try_match_angles(t, j, fn.body_close);
        if (past == j) continue;
        j = past;
      }
      if (j >= fn.body_close || t[j].kind != Token::Kind::Ident) continue;
      ++j;  // the guard variable name.
      if (j >= fn.body_close || t[j].text != "(") continue;
      const std::size_t past = match_group(t, j, fn.body_close, "(", ")");
      // Split the argument list on top-level commas (scoped_lock takes
      // several mutexes; unique_lock may take a tag second).
      std::vector<std::pair<std::size_t, std::size_t>> parts;
      std::size_t part_begin = j + 1;
      int pd = 0;
      for (std::size_t k = j + 1; k + 1 < past; ++k) {
        const std::string& x = t[k].text;
        if (x == "(" || x == "[") ++pd;
        else if (x == ")" || x == "]") --pd;
        else if (x == "," && pd == 0) {
          parts.emplace_back(part_begin, k);
          part_begin = k + 1;
        }
      }
      parts.emplace_back(part_begin, past - 1);
      for (const auto& [pb, pe] : parts) {
        if (pb >= pe) continue;
        const std::string expr = join_tokens(t, pb, pe);
        if (expr == "std::defer_lock" || expr == "std::adopt_lock" ||
            expr == "std::try_to_lock") {
          continue;
        }
        Acquisition acq;
        acq.expr = expr;
        acq.line = tok.line;
        acq.top_level = stack.empty();
        for (const Active& a : stack) acq.held.push_back(fn.acquisitions[a.acq_index].expr);
        fn.acquisitions.push_back(std::move(acq));
        stack.push_back(Active{fn.acquisitions.size() - 1, depth});
      }
      i = past - 1;
      continue;
    }

    // Call site while holding a lock.
    if (!stack.empty() && i + 1 < fn.body_close && t[i + 1].text == "(" &&
        !control_keywords().count(tok.text) && !is_annotation_macro(tok.text)) {
      CallSite call;
      call.name = tok.text;
      call.line = tok.line;
      if (i >= 2 && (t[i - 1].text == "." || t[i - 1].text == "->") &&
          t[i - 2].kind == Token::Kind::Ident) {
        call.receiver = t[i - 2].text;
      }
      for (const Active& a : stack) {
        call.held.push_back(fn.acquisitions[a.acq_index].expr);
      }
      fn.locked_calls.push_back(std::move(call));
    }
  }
}

}  // namespace

std::size_t match_group(const Tokens& t, std::size_t open, std::size_t end,
                        const char* oc, const char* cc) {
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    if (t[i].text == oc) ++depth;
    else if (t[i].text == cc) {
      if (--depth == 0) return i + 1;
    }
  }
  return end;
}

std::size_t try_match_angles(const Tokens& t, std::size_t open, std::size_t end) {
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    const std::string& x = t[i].text;
    if (x == "<") ++depth;
    else if (x == ">") {
      if (--depth == 0) return i + 1;
    } else if (x == ";" || x == "{" || x == "}") {
      return open;  // statement boundary: not a template list.
    }
  }
  return open;
}

const ClassModel* FileModel::enclosing_class(std::size_t tok) const {
  const ClassModel* best = nullptr;
  for (const ClassModel& c : classes) {
    if (tok > c.body_open && tok < c.body_close) {
      if (!best || c.body_open > best->body_open) best = &c;
    }
  }
  return best;
}

const FunctionModel* FileModel::enclosing_function(std::size_t tok) const {
  const FunctionModel* best = nullptr;
  for (const FunctionModel& f : functions) {
    if (tok > f.body_open && tok < f.body_close) {
      if (!best || f.body_open > best->body_open) best = &f;
    }
  }
  return best;
}

FileModel build_file_model(const std::string& path, const std::string& text) {
  FileModel model;
  model.path = path;
  lex(text, model);
  const Tokens& t = model.tokens;

  const std::vector<ClassSpan> spans = find_class_spans(t);
  for (const ClassSpan& span : spans) {
    ClassModel cls;
    cls.name = span.name;
    cls.body_open = span.body_open;
    cls.body_close = span.body_close;
    parse_members(t, span, cls);
    model.classes.push_back(std::move(cls));
  }
  model.functions = find_functions(t, spans);
  for (FunctionModel& fn : model.functions) scan_body(t, fn);
  return model;
}

const Member* SymbolTable::find_member(const std::string& cls,
                                       const std::string& member) const {
  const auto it = classes.find(cls);
  if (it == classes.end()) return nullptr;
  for (const ClassModel* c : it->second) {
    if (const Member* m = c->find_member(member)) return m;
  }
  return nullptr;
}

SymbolTable build_symbol_table(const std::vector<FileModel>& models) {
  SymbolTable table;
  for (const FileModel& model : models) {
    for (const ClassModel& c : model.classes) {
      table.classes[c.name].push_back(&c);
    }
    for (const FunctionModel& f : model.functions) {
      table.functions[f.name].push_back(&f);
    }
  }
  return table;
}

}  // namespace xl::lint
