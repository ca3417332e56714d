// teco-lint: determinism static analysis for the TECO tree.
//
// Every committed bench baseline, the paper_validation_test numbers and the
// mc state-space goldens rest on one promise: a seeded run replays
// bit-identically (the sim::EventQueue (time,seq) FIFO contract). That
// promise dies quietly whenever event order, trace output, or checker state
// is derived from something nondeterministic: unordered-container iteration
// order, wall-clock time, unseeded randomness, pointer values used as keys,
// or order-sensitive floating-point reduction. teco::mc and the seeded
// double-run tests catch the *consequences* at runtime; this tool rejects
// the *sources* at lint time.
//
// Like examples/hb_lint.cpp, this is a deliberately token/decl-level
// analyzer, not a libclang plugin: it tokenizes the sources (comments and
// string literals stripped, #else/#elif preprocessor branches skipped),
// tracks container/float declarations per file plus its directly
// #include'd project headers, and pattern-matches the hazards below. That
// buys zero build-time dependencies and keeps every rule ~a screen of code,
// at the cost of being name-based: aliasing through locals is invisible.
// The rules are tuned so the committed tree is clean (see
// docs/STATIC_ANALYSIS.md for the catalogue and the rationale behind every
// suppression).
//
// Rules
//   unordered-iter  range-for over an unordered_{map,set} whose body lets
//                   the iteration order escape (any non-commutative call,
//                   stream output, container append). Pure commutative
//                   integer accumulation (size/count/min/max/+= on an
//                   integral) is allowed.
//   wallclock       std::chrono::{system,steady,high_resolution}_clock,
//                   rand/srand/random_device/time(nullptr) outside the
//                   seeded sim::Rng.
//   ptr-order       pointer values used as ordering or hash keys:
//                   {map,set,unordered_*}<T*,...>, std::hash<T*>,
//                   reinterpret_cast<uintptr_t>.
//   fp-reduce       float/double accumulation whose order is not pinned:
//                   += on a floating accumulator inside unordered-container
//                   iteration, or inside a loop tagged `// teco-lint: reduce`.
//
// Suppressions: `// teco-lint: allow(rule[,rule...])` on the finding's line
// or the line above. Suppressions are counted and reported; CI pins the
// total via --max-suppressions so new ones are reviewed, not accumulated.
//
// Exit codes: 0 clean, 1 unsuppressed findings, 2 suppression budget
// exceeded or usage/IO error.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule catalogue.

struct RuleInfo {
  const char* id;
  const char* summary;
  const char* hint;
};

constexpr RuleInfo kRules[] = {
    {"unordered-iter",
     "iteration order of an unordered container escapes into event "
     "scheduling, trace output, or checker state",
     "iterate sorted keys (collect + std::sort) or switch to std::map/vector"},
    {"wallclock",
     "wall-clock time or unseeded randomness on a simulation-visible path",
     "thread sim::Time through, or draw from the seeded sim::Rng"},
    {"ptr-order",
     "pointer value used as an ordering or hash key (address-dependent, "
     "varies run to run under ASLR)",
     "key on a stable id (index, address, name) instead of the pointer"},
    {"fp-reduce",
     "floating-point accumulation whose summation order is not pinned",
     "fix the iteration order (sorted keys) or use a pairwise/Kahan "
     "reduction with a documented order contract"},
};

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : kRules)
    if (id == r.id) return true;
  return false;
}

std::string valid_rules_list() {
  std::string out;
  for (const RuleInfo& r : kRules) {
    if (!out.empty()) out += ", ";
    out += r.id;
  }
  return out;
}

const RuleInfo& rule_info(const std::string& id) {
  for (const RuleInfo& r : kRules)
    if (id == r.id) return r;
  std::cerr << "teco-lint: internal error: unknown rule " << id << "\n";
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Source model: raw text -> stripped code + lint directives.

struct Token {
  std::string text;
  int line = 0;
};

struct SourceFile {
  std::string path;
  std::vector<Token> tokens;
  // line -> rules allowed on that line (from `teco-lint: allow(...)`).
  std::map<int, std::set<std::string>> allows;
  std::set<int> reduce_tags;          // lines carrying `teco-lint: reduce`
  std::vector<std::string> includes;  // project-relative #include "..." paths
  // Names declared in THIS file.
  std::set<std::string> unordered_vars;
  std::set<std::string> ordered_vars;  // same name declared as ordered
  std::set<std::string> float_vars;
  std::set<std::string> unordered_types;  // aliases of unordered containers
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string detail;  // appended to the rule summary
  bool suppressed = false;
};

// Parse a `teco-lint:` directive out of one comment's text.
void parse_directive(const std::string& comment, int line, SourceFile& sf) {
  const std::size_t at = comment.find("teco-lint:");
  if (at == std::string::npos) return;
  std::string rest = comment.substr(at + 10);
  if (rest.find("reduce") != std::string::npos &&
      rest.find("allow") == std::string::npos) {
    sf.reduce_tags.insert(line);
    return;
  }
  const std::size_t open = rest.find("allow(");
  if (open == std::string::npos) return;
  const std::size_t close = rest.find(')', open);
  if (close == std::string::npos) return;
  std::string list = rest.substr(open + 6, close - open - 6);
  std::stringstream ss(list);
  std::string id;
  while (std::getline(ss, id, ',')) {
    id.erase(std::remove_if(id.begin(), id.end(),
                            [](unsigned char c) { return std::isspace(c); }),
             id.end());
    if (id.empty()) continue;
    if (!known_rule(id) && id != "all") {
      std::cerr << sf.path << ":" << line
                << ": teco-lint: unknown rule in allow(): " << id
                << " (valid: " << valid_rules_list() << ")\n";
      std::exit(2);
    }
    sf.allows[line].insert(id);
  }
}

// Strip comments and string/char literals, recording directives. Keeps the
// newline structure so token line numbers match the original file.
std::string strip(const std::string& raw, SourceFile& sf) {
  std::string out;
  out.reserve(raw.size());
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = raw.size();
  while (i < n) {
    const char c = raw[i];
    if (c == '\n') {
      out += '\n';
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < n && raw[i + 1] == '/') {
      std::string comment;
      while (i < n && raw[i] != '\n') comment += raw[i++];
      parse_directive(comment, line, sf);
    } else if (c == '/' && i + 1 < n && raw[i + 1] == '*') {
      std::string comment;
      const int start = line;
      i += 2;
      while (i + 1 < n && !(raw[i] == '*' && raw[i + 1] == '/')) {
        if (raw[i] == '\n') {
          out += '\n';
          ++line;
        }
        comment += raw[i++];
      }
      i = i + 1 < n ? i + 2 : n;
      parse_directive(comment, start, sf);
    } else if (c == '"') {
      // String literal (raw strings handled crudely: R"( ... )").
      const bool is_raw = i > 0 && raw[i - 1] == 'R';
      out += '"';
      ++i;
      if (is_raw) {
        std::size_t delim_end = raw.find('(', i);
        if (delim_end == std::string::npos) break;
        const std::string close_mark =
            ")" + raw.substr(i, delim_end - i) + "\"";
        const std::size_t end = raw.find(close_mark, delim_end);
        for (std::size_t j = i; j < std::min(end, n); ++j)
          if (raw[j] == '\n') {
            out += '\n';
            ++line;
          }
        i = end == std::string::npos ? n : end + close_mark.size();
      } else {
        while (i < n && raw[i] != '"') {
          if (raw[i] == '\\') ++i;
          if (i < n && raw[i] == '\n') ++line;
          ++i;
        }
        ++i;
      }
      out += '"';
    } else if (c == '\'') {
      out += '\'';
      ++i;
      while (i < n && raw[i] != '\'') {
        if (raw[i] == '\\') ++i;
        ++i;
      }
      ++i;
      out += '\'';
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// First alphabetic word of a preprocessor directive line ("#  ifdef X" ->
// "ifdef").
std::string directive_word(const std::string& dir) {
  std::size_t p = 1;
  while (p < dir.size() &&
         std::isspace(static_cast<unsigned char>(dir[p])) != 0)
    ++p;
  std::size_t q = p;
  while (q < dir.size() &&
         std::isalpha(static_cast<unsigned char>(dir[q])) != 0)
    ++q;
  return dir.substr(p, q - p);
}

void tokenize(const std::string& code, SourceFile& sf) {
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = code.size();
  while (i < n) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
    } else if (c == '#') {
      // Preprocessor line: capture #include "..." targets. An #else/#elif
      // opens a branch we must NOT tokenize — the first branch was already
      // kept, and doubled code (an opening brace once per branch) would
      // corrupt loop-body spans — so skip to the matching #endif,
      // counting newlines to preserve line numbers.
      std::size_t end = code.find('\n', i);
      if (end == std::string::npos) end = n;
      const std::string dir = code.substr(i, end - i);
      const std::string word = directive_word(dir);
      if (word == "else" || word == "elif") {
        int depth = 1;
        i = end;
        while (i < n && depth > 0) {
          if (code[i] == '\n') {
            ++line;
            ++i;
            continue;
          }
          if (code[i] == '#') {
            std::size_t e2 = code.find('\n', i);
            if (e2 == std::string::npos) e2 = n;
            const std::string w2 = directive_word(code.substr(i, e2 - i));
            if (w2 == "if" || w2 == "ifdef" || w2 == "ifndef") ++depth;
            else if (w2 == "endif") --depth;
            i = e2;
            continue;
          }
          ++i;
        }
        continue;
      }
      const std::size_t inc = dir.find("include");
      if (inc != std::string::npos) {
        const std::size_t q1 = dir.find('"', inc);
        const std::size_t q2 =
            q1 == std::string::npos ? q1 : dir.find('"', q1 + 1);
        if (q2 != std::string::npos)
          sf.includes.push_back(dir.substr(q1 + 1, q2 - q1 - 1));
      }
      i = end;
    } else if (ident_char(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
      std::size_t j = i;
      while (j < n && ident_char(code[j])) ++j;
      sf.tokens.push_back({code.substr(i, j - i), line});
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && (ident_char(code[j]) || code[j] == '.')) ++j;
      sf.tokens.push_back({code.substr(i, j - i), line});
      i = j;
    } else {
      // Multi-char operators the rules care about; everything else 1 char.
      static const char* two[] = {"+=", "-=", "*=", "/=", "++", "--",
                                  "<<", ">>", "::", "->", "==", "!="};
      std::string tok(1, c);
      for (const char* op : two) {
        if (i + 1 < n && code[i] == op[0] && code[i + 1] == op[1]) {
          tok = op;
          break;
        }
      }
      sf.tokens.push_back({tok, line});
      i += tok.size();
    }
  }
}

// ---------------------------------------------------------------------------
// Declaration tracking (container/float names, for the determinism rules).

const std::set<std::string>& builtin_unordered() {
  static const std::set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

const std::set<std::string>& builtin_ordered() {
  static const std::set<std::string> kSet = {"map", "set", "vector", "array",
                                             "deque", "multimap", "multiset"};
  return kSet;
}

// Given tokens[i] == "<", return the index just past the matching ">".
std::size_t skip_template(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].text == "<") ++depth;
    else if (t[i].text == ">") {
      if (--depth == 0) return i + 1;
    } else if (t[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t[i].text == ";" || t[i].text == "{") {
      return i;  // not a template after all (less-than expression)
    }
  }
  return i;
}

void collect_decls(SourceFile& sf) {
  const auto& t = sf.tokens;
  // `using Alias = ... unordered_map<...> ...;`
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].text == "using" && t[i + 2].text == "=") {
      for (std::size_t j = i + 3; j < t.size() && t[j].text != ";"; ++j) {
        if (builtin_unordered().count(t[j].text) != 0 ||
            sf.unordered_types.count(t[j].text) != 0) {
          sf.unordered_types.insert(t[i + 1].text);
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& tx = t[i].text;
    const bool is_unordered = builtin_unordered().count(tx) != 0 ||
                              sf.unordered_types.count(tx) != 0;
    const bool is_ordered = builtin_ordered().count(tx) != 0;
    if ((is_unordered || is_ordered) && i + 1 < t.size()) {
      std::size_t j = i + 1;
      if (j < t.size() && t[j].text == "<") j = skip_template(t, j);
      // Accept `Type [cv-ref] name ;|=|{|,|)` declarations — members,
      // locals, and (const-reference) function parameters alike.
      while (j < t.size() &&
             (t[j].text == "&" || t[j].text == "*" || t[j].text == "const"))
        ++j;
      if (j < t.size() && ident_char(t[j].text[0]) &&
          std::isdigit(static_cast<unsigned char>(t[j].text[0])) == 0 &&
          j + 1 < t.size() &&
          (t[j + 1].text == ";" || t[j + 1].text == "=" ||
           t[j + 1].text == "{" || t[j + 1].text == "," ||
           t[j + 1].text == ")")) {
        (is_unordered ? sf.unordered_vars : sf.ordered_vars)
            .insert(t[j].text);
      }
    }
    if ((tx == "float" || tx == "double") && i + 1 < t.size()) {
      const std::string& name = t[i + 1].text;
      if (ident_char(name[0]) &&
          std::isdigit(static_cast<unsigned char>(name[0])) == 0 &&
          i + 2 < t.size() &&
          (t[i + 2].text == ";" || t[i + 2].text == "=" ||
           t[i + 2].text == "{" || t[i + 2].text == ",")) {
        sf.float_vars.insert(name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule engines.

struct Visibility {
  // Names visible to a file: its own decls plus its direct project includes.
  std::set<std::string> unordered_vars;
  std::set<std::string> ordered_vars;
  std::set<std::string> float_vars;
  std::set<std::string> unordered_types;
};

bool is_keyword_call(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if",     "for",        "while",  "switch",      "return",
      "sizeof", "catch",      "assert", "static_cast", "const_cast",
      "defined"};
  return kKw.count(s) != 0;
}

bool is_commutative_call(const std::string& s) {
  static const std::set<std::string> kOk = {"size",     "empty", "count",
                                            "contains", "max",   "min",
                                            "abs",      "fabs",  "llabs"};
  return kOk.count(s) != 0;
}

void scan_loops(const SourceFile& sf, const Visibility& vis,
                std::vector<Finding>& out) {
  const auto& t = sf.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "for" && t[i].text != "while") continue;
    if (i + 1 >= t.size() || t[i + 1].text != "(") continue;
    const int for_line = t[i].line;
    const bool tagged_reduce = sf.reduce_tags.count(for_line) != 0 ||
                               sf.reduce_tags.count(for_line - 1) != 0;
    // Find the matching ')' and a range-for ':' at depth 1.
    int depth = 0;
    std::size_t close = i + 1;
    std::size_t colon = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].text == "(") ++depth;
      else if (t[j].text == ")") {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (t[j].text == ":" && depth == 1 && colon == 0) {
        colon = j;
      }
    }
    if (close <= i + 1) continue;
    // Is the range expression an unordered container?
    std::string container;
    if (t[i].text == "for" && colon != 0) {
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (vis.unordered_vars.count(t[j].text) != 0 &&
            vis.ordered_vars.count(t[j].text) == 0) {
          container = t[j].text;
          break;
        }
        if (builtin_unordered().count(t[j].text) != 0 ||
            vis.unordered_types.count(t[j].text) != 0) {
          container = t[j].text;  // e.g. iterating a temporary
          break;
        }
      }
    }
    if (container.empty() && !tagged_reduce) continue;
    // Extract the loop body: `{...}` balanced, or one statement up to ';'.
    std::size_t body_begin = close + 1;
    std::size_t body_end = body_begin;
    if (body_begin < t.size() && t[body_begin].text == "{") {
      int bd = 0;
      for (std::size_t j = body_begin; j < t.size(); ++j) {
        if (t[j].text == "{") ++bd;
        else if (t[j].text == "}" && --bd == 0) {
          body_end = j;
          break;
        }
      }
    } else {
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
    }
    // Analyze the body.
    std::string escape;  // first order-escaping construct
    std::string fp_acc;  // first floating accumulator hit by `+=`
    for (std::size_t j = body_begin; j < body_end; ++j) {
      const std::string& b = t[j].text;
      if (b == "<<" && escape.empty()) escape = "stream output";
      if (j + 1 < body_end && t[j + 1].text == "(" &&
          ident_char(b[0]) &&
          std::isdigit(static_cast<unsigned char>(b[0])) == 0 &&
          !is_keyword_call(b) && !is_commutative_call(b) && escape.empty()) {
        escape = "call to '" + b + "'";
      }
      if (j + 1 < body_end && t[j + 1].text == "+=" &&
          vis.float_vars.count(b) != 0 && fp_acc.empty()) {
        fp_acc = b;
      }
    }
    if (!container.empty() && !escape.empty()) {
      out.push_back({sf.path, for_line, "unordered-iter",
                     "'" + container + "' iterated with order-sensitive "
                     "body (" + escape + ")",
                     false});
    }
    if (!fp_acc.empty() && (!container.empty() || tagged_reduce)) {
      out.push_back({sf.path, for_line, "fp-reduce",
                     "'" + fp_acc + "' accumulated in " +
                         (container.empty()
                              ? std::string("a tagged reduce loop")
                              : "iteration over '" + container + "'"),
                     false});
    }
  }
}

void scan_wallclock(const SourceFile& sf, std::vector<Finding>& out) {
  const auto& t = sf.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& tx = t[i].text;
    if (tx == "system_clock" || tx == "steady_clock" ||
        tx == "high_resolution_clock" || tx == "random_device") {
      out.push_back({sf.path, t[i].line, "wallclock", "'" + tx + "'", false});
    } else if ((tx == "rand" || tx == "srand") && i + 1 < t.size() &&
               t[i + 1].text == "(") {
      out.push_back(
          {sf.path, t[i].line, "wallclock", "'" + tx + "()'", false});
    } else if (tx == "time" && i + 2 < t.size() && t[i + 1].text == "(" &&
               (t[i + 2].text == "nullptr" || t[i + 2].text == "NULL" ||
                t[i + 2].text == "0")) {
      out.push_back(
          {sf.path, t[i].line, "wallclock", "'time(nullptr)'", false});
    }
  }
}

void scan_ptr_order(const SourceFile& sf, const Visibility& vis,
                    std::vector<Finding>& out) {
  const auto& t = sf.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const std::string& tx = t[i].text;
    const bool assoc = builtin_unordered().count(tx) != 0 ||
                       vis.unordered_types.count(tx) != 0 || tx == "map" ||
                       tx == "set" || tx == "multimap" || tx == "multiset" ||
                       tx == "hash";
    if (assoc && t[i + 1].text == "<") {
      // First template argument: tokens until a top-level ',' or '>'.
      int depth = 0;
      std::string last;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const std::string& b = t[j].text;
        if (b == "<") ++depth;
        else if (b == ">" || b == ">>") {
          if (b == ">" && --depth > 0) continue;
          break;
        } else if (b == "," && depth == 1) {
          break;
        } else if (b == ";" || b == "{") {
          last.clear();  // not a template
          break;
        } else {
          last = b;
        }
      }
      if (last == "*") {
        out.push_back({sf.path, t[i].line, "ptr-order",
                       "'" + tx + "' keyed on a pointer type", false});
      }
    }
    if (tx == "reinterpret_cast" && t[i + 1].text == "<") {
      for (std::size_t j = i + 2; j < t.size() && t[j].text != ">"; ++j) {
        if (t[j].text == "uintptr_t" || t[j].text == "intptr_t") {
          out.push_back({sf.path, t[i].line, "ptr-order",
                         "pointer reinterpreted as an integer id", false});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.

struct Summary {
  std::map<std::string, int> findings;
  std::map<std::string, int> suppressed;
};

void apply_suppressions(const SourceFile& sf, std::vector<Finding>& fs) {
  for (Finding& f : fs) {
    for (int l : {f.line, f.line - 1}) {
      const auto it = sf.allows.find(l);
      if (it != sf.allows.end() &&
          (it->second.count(f.rule) != 0 || it->second.count("all") != 0)) {
        f.suppressed = true;
        break;
      }
    }
  }
}

std::vector<std::string> expand_paths(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  for (const std::string& a : args) {
    if (fs::is_directory(a)) {
      for (const auto& e : fs::recursive_directory_iterator(a)) {
        if (!e.is_regular_file()) continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h")
          files.push_back(e.path().string());
      }
    } else if (fs::is_regular_file(a)) {
      files.push_back(a);
    } else {
      std::cerr << "teco-lint: no such file or directory: " << a << "\n";
      std::exit(2);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

void print_rules() {
  std::cout << "teco-lint rules:\n";
  for (const RuleInfo& r : kRules) {
    std::cout << "  " << r.id << "\n    " << r.summary << "\n    fix: "
              << r.hint << "\n";
  }
  std::cout << "suppression: // teco-lint: allow(<rule>[,<rule>...]) on the "
               "finding's line or the line above\n"
               "reduce tag:  // teco-lint: reduce on the line of (or above) "
               "a loop marks it a reduce path for fp-reduce\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  long max_suppressions = -1;
  bool summary = true;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-rules") {
      print_rules();
      return 0;
    } else if (a == "--no-summary") {
      summary = false;
    } else if (a.rfind("--max-suppressions=", 0) == 0) {
      max_suppressions = std::stol(a.substr(19));
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: teco_lint [--list-rules] [--no-summary]\n"
                   "                 [--max-suppressions=N] <file|dir>...\n";
      return 0;
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << "teco-lint: unknown flag " << a << "\n";
      return 2;
    } else {
      paths.push_back(a);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: teco_lint [flags] <file|dir>...\n";
    return 2;
  }

  std::vector<SourceFile> sources;
  for (const std::string& p : expand_paths(paths)) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "teco-lint: cannot read " << p << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    SourceFile sf;
    sf.path = p;
    const std::string code = strip(buf.str(), sf);
    tokenize(code, sf);
    collect_decls(sf);
    sources.push_back(std::move(sf));
  }

  // Include visibility: a file sees its own declarations plus those of
  // any scanned file whose path ends with one of its #include "..." paths.
  std::vector<Finding> all;
  Summary sum;
  for (const RuleInfo& r : kRules) {
    sum.findings[r.id] = 0;
    sum.suppressed[r.id] = 0;
  }
  for (const SourceFile& sf : sources) {
    Visibility vis;
    auto merge = [&vis](const SourceFile& s) {
      vis.unordered_vars.insert(s.unordered_vars.begin(),
                                s.unordered_vars.end());
      vis.ordered_vars.insert(s.ordered_vars.begin(), s.ordered_vars.end());
      vis.float_vars.insert(s.float_vars.begin(), s.float_vars.end());
      vis.unordered_types.insert(s.unordered_types.begin(),
                                 s.unordered_types.end());
    };
    merge(sf);
    for (const std::string& inc : sf.includes) {
      for (const SourceFile& other : sources) {
        const std::string& op = other.path;
        if (op.size() >= inc.size() &&
            op.compare(op.size() - inc.size(), inc.size(), inc) == 0) {
          merge(other);
        }
      }
    }
    std::vector<Finding> fs;
    scan_loops(sf, vis, fs);
    scan_wallclock(sf, fs);
    scan_ptr_order(sf, vis, fs);
    apply_suppressions(sf, fs);
    all.insert(all.end(), fs.begin(), fs.end());
  }

  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });

  int open = 0, suppressed_total = 0;
  for (const Finding& f : all) {
    if (f.suppressed) {
      ++sum.suppressed[f.rule];
      ++suppressed_total;
      continue;
    }
    ++sum.findings[f.rule];
    ++open;
    const RuleInfo& r = rule_info(f.rule);
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.detail << " — " << r.summary << "\n    fix: " << r.hint
              << "\n";
  }

  if (summary) {
    std::cout << "teco-lint summary (" << sources.size() << " file"
              << (sources.size() == 1 ? "" : "s") << ")\n";
    std::cout << "  rule              findings  suppressed\n";
    for (const RuleInfo& r : kRules) {
      std::printf("  %-18s %8d  %10d\n", r.id, sum.findings[r.id],
                  sum.suppressed[r.id]);
    }
    std::printf("  %-18s %8d  %10d\n", "total", open, suppressed_total);
  }

  if (max_suppressions >= 0 && suppressed_total > max_suppressions) {
    std::cerr << "teco-lint: suppression count " << suppressed_total
              << " exceeds budget " << max_suppressions
              << " (new allow() comments need review; raise the budget in "
                 "scripts/lint.sh deliberately)\n";
    return 2;
  }
  return open == 0 ? 0 : 1;
}
