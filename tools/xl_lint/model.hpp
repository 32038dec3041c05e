// The xl_lint front end: one lexer and a lightweight declaration/scope parser
// over C++ sources. It is not a compiler front end -- it recovers exactly the
// structure the rules need:
//
//   - the code tokens, with comments, string/char literals (raw strings
//     included) and preprocessor lines dropped;
//   - the comment text, line by line, and which lines are comment-only (the
//     `xl-lint:` suppression markers live there);
//   - the headers named by `#include <...>`;
//   - classes/structs with their data members, mutex members, and the
//     XL_GUARDED_BY / XL_UNGUARDED annotations attached to each member;
//   - function and method bodies (token spans);
//   - lock acquisitions inside each body (MutexLock / lock_guard /
//     unique_lock / scoped_lock), with their nesting structure;
//   - call sites made while holding a lock (for one level of cross-TU
//     lock-order propagation).
//
// Models from every translation unit are merged into a SymbolTable so rules
// can resolve `pool_.mutex_` to `ThreadPool::mutex_` even when the class is
// declared in a header and locked from a .cpp file.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace xl::lint {

struct Token {
  enum class Kind { Ident, Number, Punct };
  Kind kind = Kind::Punct;
  std::string text;
  int line = 1;  ///< 1-based.
};

/// `<` and `>` are always single-char tokens so template argument lists can
/// be depth-matched; `<<` is one token.
using Tokens = std::vector<Token>;

/// Index one past the group closing t[open] (`oc` ... `cc`, nested by depth).
/// Returns `end` when unbalanced.
std::size_t match_group(const Tokens& t, std::size_t open, std::size_t end,
                        const char* oc, const char* cc);

/// Index one past the template argument list opening at t[open] == "<".
/// Returns `open` when no balanced close comes before `end` or a statement
/// boundary (`;` `{` `}`) -- the `<` was a comparison.
std::size_t try_match_angles(const Tokens& t, std::size_t open, std::size_t end);

inline bool tok_is(const Tokens& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

/// The text of one comment on one physical line (a block comment spanning
/// several lines yields one entry per line).
struct Comment {
  int line = 0;
  std::string text;
};

struct Member {
  std::string name;
  std::string type;  ///< declaration text before the name, macros stripped.
  int line = 0;
  bool is_mutex = false;    ///< Mutex / std::mutex family.
  bool is_exempt = false;   ///< const/static/atomic/CondVar/thread/reference.
  bool is_guarded = false;  ///< XL_GUARDED_BY / XL_PT_GUARDED_BY present.
  bool is_marked_unguarded = false;  ///< XL_UNGUARDED(reason) present.
};

struct ClassModel {
  std::string name;
  std::size_t body_open = 0;   ///< token index of the opening '{'.
  std::size_t body_close = 0;  ///< token index of the closing '}'.
  std::vector<Member> members;

  bool has_mutex() const {
    for (const Member& m : members) {
      if (m.is_mutex) return true;
    }
    return false;
  }
  const Member* find_member(const std::string& n) const {
    for (const Member& m : members) {
      if (m.name == n) return &m;
    }
    return nullptr;
  }
};

/// One scoped lock acquisition inside a function body.
struct Acquisition {
  std::string expr;  ///< raw lock expression, whitespace stripped.
  int line = 0;
  bool top_level = false;  ///< acquired while holding no other lock.
  /// Raw exprs of locks already held at this acquisition (innermost last).
  std::vector<std::string> held;
};

/// A call made while holding at least one lock.
struct CallSite {
  std::string name;      ///< callee identifier.
  std::string receiver;  ///< `recv.name(...)` receiver ident ("" for free calls).
  int line = 0;
  std::vector<std::string> held;  ///< raw exprs of locks held at the call.
};

struct FunctionModel {
  std::string name;
  std::string class_name;  ///< qualifier or enclosing class ("" for free).
  std::size_t body_open = 0;    ///< token index of the opening '{'.
  std::size_t body_close = 0;   ///< token index of the closing '}'.
  std::size_t params_open = 0;  ///< token index of the parameter-list '('.
  std::size_t params_close = 0; ///< token index of the parameter-list ')'.
  std::vector<Acquisition> acquisitions;
  std::vector<CallSite> locked_calls;
};

struct FileModel {
  std::string path;
  Tokens tokens;
  std::vector<Comment> comments;
  std::set<int> comment_only_lines;  ///< first non-blank characters are `//`.
  std::set<std::string> includes;    ///< headers named by `#include <...>`.
  std::vector<ClassModel> classes;
  std::vector<FunctionModel> functions;

  /// Innermost class whose body contains token `tok` (nullptr if none).
  const ClassModel* enclosing_class(std::size_t tok) const;
  /// Innermost function whose body contains token `tok` (nullptr if none).
  const FunctionModel* enclosing_function(std::size_t tok) const;
};

/// Cross-translation-unit view over every parsed file.
struct SymbolTable {
  std::map<std::string, std::vector<const ClassModel*>> classes;
  std::map<std::string, std::vector<const FunctionModel*>> functions;

  const Member* find_member(const std::string& cls, const std::string& member) const;
};

FileModel build_file_model(const std::string& path, const std::string& text);
SymbolTable build_symbol_table(const std::vector<FileModel>& models);

}  // namespace xl::lint
