// dls_lint: the DLS determinism linter.
//
// A standalone token-level scanner (no libclang) enforcing the repo's
// determinism and layering contracts -- the properties the paper's
// reproducibility claims rest on, which no compiler warning checks:
//
//   wall-clock            simulation-path code must not read host time
//   nondeterministic-rand simulation-path code must not draw entropy
//   raw-shard-io          shard bytes go through sweep::ShardWriter only
//   naked-net             raw socket I/O lives behind net::Transport
//   unbounded-sleep       protocol threads wait on deadlines, not naps
//   bare-mutex            threaded subsystems use the annotated
//                         support::Mutex wrappers, not std primitives
//   map-in-hot-path       event-core and direct-simulator code
//                         (simx/mw/hagerup) uses flat vectors, not
//                         node-based std maps
//   callerless-api        a namespace-scope function declared in a public
//                         header (src/*/include/) is named somewhere
//                         outside tests/ besides its own declaration and
//                         definition (a cross-file rule: only the scanned
//                         paths count, so scan the whole tree)
//
// Escape hatch: a `// dls-lint: allow(<rule>[, <rule>])` comment
// suppresses those rules on its own line, and on the next line when
// the comment stands alone.  Unknown rule names are themselves a
// finding (bad-allow), so suppressions cannot rot silently.
//
// Output is gcc-style `path:line:col: error: message [rule]` (or JSONL
// with --format=json).  Exit 0 = clean, 1 = findings, 2 = usage/IO.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string rule;
  std::string message;
};

struct Token {
  std::string text;
  std::size_t line = 0;
  std::size_t col = 0;
};

/// The rule catalog: name -> one-line rationale (--list-rules).
const std::map<std::string, std::string>& rule_catalog() {
  static const std::map<std::string, std::string> rules = {
      {"wall-clock",
       "simulation-path code must not read host time; derive time from the simulated "
       "clock (the time of the event being processed) or the spec"},
      {"nondeterministic-rand",
       "simulation-path code must not draw entropy; use the seeded workload streams"},
      {"raw-shard-io",
       "shard bytes must go through sweep::ShardWriter (EINTR-safe write + fsync), "
       "never raw stdio/fd writes"},
      {"naked-net",
       "raw socket calls belong behind net::Transport; protocol code outside src/net "
       "must not touch the socket API"},
      {"unbounded-sleep",
       "protocol threads wait on condition variables with deadlines; naked sleeps "
       "stretch failover and hide lost wakeups"},
      {"bare-mutex",
       "threaded subsystems use support::Mutex/LockGuard (thread-safety annotated), "
       "not bare std primitives"},
      {"map-in-hot-path",
       "event-core and direct-simulator code (simx/mw/hagerup) must not walk node-based "
       "maps or hash strings per lookup in steady state; use flat vectors"},
      {"callerless-api",
       "a namespace-scope function declared in a public header (src/*/include/) needs a "
       "caller outside tests/; delete it, or allow-comment why it stays"},
  };
  return rules;
}

/// Which rules apply to a file, decided by path substring so the test
/// corpus can mirror the layout under a temp root.
struct Scope {
  bool sim = false;        ///< wall-clock + nondeterministic-rand
  bool sweep_io = false;   ///< raw-shard-io
  bool net_free = false;   ///< naked-net
  bool sleep = false;      ///< unbounded-sleep
  bool bare_mutex = false; ///< bare-mutex
  bool hot_map = false;    ///< map-in-hot-path
};

Scope classify(const std::string& path) {
  const auto has = [&](std::string_view needle) {
    return path.find(needle) != std::string::npos;
  };
  Scope scope;
  scope.sim = has("src/core/") || has("src/mw/") || has("src/simx/") ||
              has("src/hagerup/") || has("src/workload/") || has("src/sweep/record");
  scope.sweep_io = has("src/sweep/") && !has("shard_io");
  scope.net_free = !has("src/net/");
  scope.sleep = has("src/dist/") || has("src/net/") || has("src/pool/");
  scope.bare_mutex =
      has("src/pool/") || has("src/dist/") || has("src/net/") || has("src/sweep/");
  scope.hot_map = has("src/simx/") || has("src/mw/") || has("src/hagerup/");
  return scope;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// One scanned file: the token stream (comments, strings and
/// preprocessor lines stripped) plus the per-line allow sets parsed
/// out of `// dls-lint: allow(...)` comments.
struct ScannedFile {
  std::vector<Token> tokens;
  std::map<std::size_t, std::set<std::string>> allows;  // line -> rules
  std::vector<Finding> bad_allows;
};

/// Parse allow directives out of one comment's text.  The marker must
/// START the comment (after the delimiters) -- prose that merely
/// mentions the syntax, like this file's own header, is not a
/// directive.
void parse_allow(const std::string& comment, std::size_t line, bool alone,
                 const std::string& path, ScannedFile& out) {
  std::size_t marker = 0;
  while (marker < comment.size() &&
         (comment[marker] == '/' || comment[marker] == '*' || comment[marker] == '!' ||
          std::isspace(static_cast<unsigned char>(comment[marker])))) {
    ++marker;
  }
  if (comment.compare(marker, 9, "dls-lint:") != 0) return;
  std::size_t pos = marker + std::string_view("dls-lint:").size();
  while (pos < comment.size() && std::isspace(static_cast<unsigned char>(comment[pos]))) ++pos;
  if (comment.compare(pos, 6, "allow(") != 0) return;
  pos += 6;
  std::string rule;
  for (; pos <= comment.size(); ++pos) {
    const char c = pos < comment.size() ? comment[pos] : ')';
    if (c == ',' || c == ')') {
      // Trim and record one rule name.
      const std::size_t b = rule.find_first_not_of(" \t");
      const std::size_t e = rule.find_last_not_of(" \t");
      if (b != std::string::npos) {
        const std::string name = rule.substr(b, e - b + 1);
        if (rule_catalog().count(name) == 0) {
          out.bad_allows.push_back(
              {path, line, 1, "bad-allow",
               "unknown rule '" + name + "' in dls-lint allow comment"});
        } else {
          out.allows[line].insert(name);
          if (alone) out.allows[line + 1].insert(name);
        }
      }
      rule.clear();
      if (c == ')') break;
    } else {
      rule += c;
    }
  }
}

/// The mini-lexer: emits identifier and punctuation tokens; strips
/// comments (scanning them for allow markers), string/char literals
/// (raw strings included) and preprocessor lines.
ScannedFile scan(const std::string& path, const std::string& text) {
  ScannedFile out;
  std::size_t i = 0;
  std::size_t line = 1;
  std::size_t col = 1;
  bool line_has_code = false;  // any token before this point on the line

  const auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < text.size(); ++k, ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
        line_has_code = false;
      } else {
        ++col;
      }
    }
  };
  const auto peek = [&](std::size_t off = 0) -> char {
    return i + off < text.size() ? text[i + off] : '\0';
  };

  while (i < text.size()) {
    const char c = text[i];
    // Preprocessor line (includes, defines): skip wholesale, honoring
    // backslash continuations.
    if (c == '#' && !line_has_code) {
      while (i < text.size()) {
        if (text[i] == '\\' && peek(1) == '\n') {
          advance(2);
          continue;
        }
        if (text[i] == '\n') break;
        advance();
      }
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      const std::size_t comment_line = line;
      const bool alone = !line_has_code;
      std::string body;
      while (i < text.size() && text[i] != '\n') {
        body += text[i];
        advance();
      }
      parse_allow(body, comment_line, alone, path, out);
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const std::size_t comment_line = line;
      const bool alone = !line_has_code;
      std::string body;
      advance(2);
      while (i < text.size() && !(text[i] == '*' && peek(1) == '/')) {
        body += text[i];
        advance();
      }
      advance(2);
      parse_allow(body, comment_line, alone, path, out);
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      advance();
      while (i < text.size() && text[i] != quote) {
        if (text[i] == '\\') advance();
        advance();
      }
      advance();  // closing quote
      continue;
    }
    if (is_ident_start(c)) {
      Token token{{}, line, col};
      while (i < text.size() && is_ident_char(text[i])) {
        token.text += text[i];
        advance();
      }
      // Raw string literal: an R-suffixed prefix glued to a quote.
      if (peek() == '"' && (token.text == "R" || token.text == "LR" || token.text == "uR" ||
                            token.text == "UR" || token.text == "u8R")) {
        advance();  // opening quote
        std::string delim;
        while (i < text.size() && text[i] != '(') {
          delim += text[i];
          advance();
        }
        advance();  // '('
        const std::string closer = ")" + delim + "\"";
        while (i < text.size() && text.compare(i, closer.size(), closer) != 0) advance();
        advance(closer.size());
        continue;
      }
      line_has_code = true;
      out.tokens.push_back(std::move(token));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // pp-number: swallow digits, exponents and ' separators.
      while (i < text.size() &&
             (is_ident_char(text[i]) || text[i] == '.' || text[i] == '\'')) {
        advance();
      }
      line_has_code = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    // Punctuation: keep :: and -> whole, everything else single-char.
    Token token{{}, line, col};
    if (c == ':' && peek(1) == ':') {
      token.text = "::";
      advance(2);
    } else if (c == '-' && peek(1) == '>') {
      token.text = "->";
      advance(2);
    } else {
      token.text = c;
      advance();
    }
    line_has_code = true;
    out.tokens.push_back(std::move(token));
  }
  return out;
}

/// Whether an allow comment suppresses `rule` on `line`.
bool allowed(const ScannedFile& scanned, std::size_t line, const std::string& rule) {
  const auto it = scanned.allows.find(line);
  return it != scanned.allows.end() && it->second.count(rule) != 0;
}

/// Apply the rule engine to one scanned file.
void check(const std::string& path, const ScannedFile& scanned, std::vector<Finding>& findings) {
  static const std::set<std::string> kClockTypes = {"system_clock", "steady_clock",
                                                    "high_resolution_clock"};
  static const std::set<std::string> kClockCalls = {"gettimeofday", "clock_gettime",
                                                    "localtime",    "localtime_r",
                                                    "gmtime",       "mktime",
                                                    "ctime",        "strftime"};
  static const std::set<std::string> kRandCalls = {"rand", "srand", "random_shuffle"};
  static const std::set<std::string> kEngines = {
      "mt19937",       "mt19937_64", "minstd_rand",   "minstd_rand0",
      "ranlux24",      "ranlux48",   "ranlux24_base", "ranlux48_base",
      "knuth_b",       "default_random_engine"};
  static const std::set<std::string> kRawIo = {"fwrite", "fprintf", "printf", "fputs",
                                               "puts",   "fputc",   "putc"};
  static const std::set<std::string> kNet = {"send",    "recv",    "sendto",
                                             "recvfrom", "sendmsg", "recvmsg"};
  static const std::set<std::string> kSleep = {"sleep_for", "sleep", "usleep", "nanosleep"};
  static const std::set<std::string> kStdSync = {
      "mutex",          "recursive_mutex", "timed_mutex", "shared_mutex",
      "condition_variable", "condition_variable_any",
      "scoped_lock",    "lock_guard",      "unique_lock", "shared_lock"};
  static const std::set<std::string> kNodeMaps = {"map", "multimap", "unordered_map",
                                                  "unordered_multimap"};
  // Keywords that precede a call EXPRESSION (vs. a declarator, where an
  // identifier before the name means a return type).
  static const std::set<std::string> kCallContext = {"return", "co_return", "co_await",
                                                     "co_yield", "else",     "do",
                                                     "case",     "throw"};

  const Scope scope = classify(path);
  const auto& tokens = scanned.tokens;

  const auto report = [&](const Token& t, const std::string& rule, std::string message) {
    if (allowed(scanned, t.line, rule)) return;
    findings.push_back({path, t.line, t.col, rule, std::move(message)});
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& id = tokens[i].text;
    if (!is_ident_start(id[0])) continue;
    const std::string prev = i >= 1 ? tokens[i - 1].text : "";
    const std::string prev2 = i >= 2 ? tokens[i - 2].text : "";
    const std::string next = i + 1 < tokens.size() ? tokens[i + 1].text : "";

    const bool member = prev == "." || prev == "->";
    const bool prev2_ident = !prev2.empty() && is_ident_start(prev2[0]);
    const bool std_qualified = prev == "::" && prev2 == "std";
    const bool global_qualified = prev == "::" && !prev2_ident;
    const bool class_qualified = prev == "::" && prev2_ident && prev2 != "std";
    const bool prev_ident = !prev.empty() && is_ident_start(prev[0]);
    // A banned name immediately after a plain identifier is (almost
    // always) a declarator -- `auto recv(...)` -- not a call, unless
    // that identifier is a keyword that introduces an expression.
    const bool decl_like = prev_ident && kCallContext.count(prev) == 0;
    const bool call = next == "(";
    const bool free_call = call && !member && !class_qualified && !decl_like;

    if (scope.sim) {
      if (kClockTypes.count(id) != 0 && !member) {
        report(tokens[i], "wall-clock",
               "'" + id + "' reads the wall clock; simulation-path code is virtual-time only");
      }
      if (kClockCalls.count(id) != 0 && free_call) {
        report(tokens[i], "wall-clock",
               "'" + id + "()' reads the wall clock; simulation-path code is virtual-time only");
      }
      if (id == "time" && call && (std_qualified || global_qualified)) {
        report(tokens[i], "wall-clock",
               "'time()' reads the wall clock; simulation-path code is virtual-time only");
      }
      if (id == "random_device" && !member) {
        report(tokens[i], "nondeterministic-rand",
               "'random_device' draws hardware entropy; use the seeded workload streams");
      }
      if (kRandCalls.count(id) != 0 && free_call) {
        report(tokens[i], "nondeterministic-rand",
               "'" + id + "()' is nondeterministically seeded; use the seeded workload streams");
      }
      if (kEngines.count(id) != 0 && !member && i + 2 < tokens.size() &&
          is_ident_start(tokens[i + 1].text[0])) {
        const std::string& after = tokens[i + 2].text;
        const std::string& after2 = i + 3 < tokens.size() ? tokens[i + 3].text : "";
        const bool unseeded = after == ";" || (after == "{" && after2 == "}") ||
                              (after == "(" && after2 == ")");
        if (unseeded) {
          report(tokens[i], "nondeterministic-rand",
                 "'" + id + "' default-constructed without an explicit seed");
        }
      }
    }
    if (scope.sweep_io) {
      if (kRawIo.count(id) != 0 && free_call) {
        report(tokens[i], "raw-shard-io",
               "'" + id + "()' bypasses sweep::ShardWriter; shard bytes go through it");
      }
      if (id == "write" && call && global_qualified) {
        report(tokens[i], "raw-shard-io",
               "'::write()' bypasses sweep::ShardWriter; shard bytes go through it");
      }
    }
    if (scope.net_free && kNet.count(id) != 0 && free_call) {
      report(tokens[i], "naked-net",
             "'" + id + "()' outside src/net; raw socket I/O belongs behind net::Transport");
    }
    if (scope.sleep && kSleep.count(id) != 0 && call && !member) {
      report(tokens[i], "unbounded-sleep",
             "'" + id + "()' naps without a deadline; protocol threads wait on a "
             "condition variable with a deadline");
    }
    if (scope.bare_mutex && kStdSync.count(id) != 0 && std_qualified) {
      report(tokens[i], "bare-mutex",
             "'std::" + id + "' in a threaded subsystem; use the annotated "
             "support::Mutex/LockGuard wrappers");
    }
    if (scope.hot_map && kNodeMaps.count(id) != 0 && std_qualified) {
      report(tokens[i], "map-in-hot-path",
             "'std::" + id + "' in event-core code walks nodes or hashes keys per "
             "lookup; use a flat vector");
    }
  }

  findings.insert(findings.end(), scanned.bad_allows.begin(), scanned.bad_allows.end());
}

// ---------------------------------------------------------------------------
// callerless-api: the one cross-file rule.
// ---------------------------------------------------------------------------

bool is_public_header(const std::string& path) {
  return path.find("src/") != std::string::npos && path.find("/include/") != std::string::npos;
}

bool is_test_file(const std::string& path) {
  return path.rfind("tests/", 0) == 0 || path.find("/tests/") != std::string::npos;
}

/// Whether tokens[i], an identifier followed by '(', declares or
/// defines a function of that name rather than calling or naming it:
/// past any `ns::` qualifiers, a return type precedes it (an identifier
/// that is not a keyword, or the '>', '*' or '&' that ends one).
bool is_declarator(const std::vector<Token>& tokens, std::size_t i) {
  static const std::set<std::string> kNotAType = {
      "return",   "co_return", "co_await",  "co_yield", "else",         "do",
      "case",     "throw",     "new",       "delete",   "sizeof",       "alignof",
      "decltype", "noexcept",  "using",     "typedef",  "class",        "struct",
      "union",    "enum",      "namespace", "operator", "template",     "typename",
      "requires", "static_assert"};
  if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") return false;
  std::size_t k = i;
  while (k >= 2 && tokens[k - 1].text == "::" && is_ident_start(tokens[k - 2].text[0])) k -= 2;
  if (k == 0) return false;
  const std::string& prev = tokens[k - 1].text;
  if (prev == ">" || prev == "*" || prev == "&") return true;
  return is_ident_start(prev[0]) && kNotAType.count(prev) == 0;
}

/// A function declared at namespace scope in a public header.
struct ApiDeclaration {
  std::string qualified;  ///< e.g. "sweep::record_key"
  std::size_t token = 0;  ///< index of the name token in its file
};

/// The namespace-scope function declarations of one header.  Braces
/// opened by `namespace ... {` keep the scope; any other brace (class,
/// enum, function body, initializer) leaves it until it closes.  A
/// qualified name (`Type::member(`) defines a member out of line.
std::vector<ApiDeclaration> api_declarations(const std::vector<Token>& tokens) {
  struct Brace {
    bool is_namespace = false;
    std::string name;
  };
  std::vector<Brace> braces;
  std::optional<std::string> pending_namespace;  // seen `namespace`, awaiting '{'
  std::size_t paren_depth = 0;
  const auto at_namespace_scope = [&braces] {
    return std::all_of(braces.begin(), braces.end(), [](const Brace& b) { return b.is_namespace; });
  };
  // All-caps names are macros (`class DLS_CAPABILITY("mutex") Mutex`).
  const auto is_macro_name = [](const std::string& name) {
    return std::none_of(name.begin(), name.end(),
                        [](char c) { return std::islower(static_cast<unsigned char>(c)) != 0; });
  };
  std::vector<ApiDeclaration> out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (t == "namespace") {
      pending_namespace = "";
    } else if (t == "{") {
      braces.push_back({pending_namespace.has_value(), pending_namespace.value_or("")});
      pending_namespace.reset();
    } else if (t == "}") {
      if (!braces.empty()) braces.pop_back();
    } else if (t == ";") {
      pending_namespace.reset();  // a namespace alias
    } else if (t == "(") {
      ++paren_depth;
    } else if (t == ")") {
      if (paren_depth > 0) --paren_depth;
    } else if (pending_namespace) {
      *pending_namespace += t;  // the (possibly nested) namespace name
    } else if (is_ident_start(t[0]) && paren_depth == 0 && at_namespace_scope() &&
               (i == 0 || tokens[i - 1].text != "::") && !is_macro_name(t) &&
               is_declarator(tokens, i)) {
      std::string qualified;
      for (const Brace& b : braces) {
        if (!b.name.empty()) qualified += b.name + "::";
      }
      out.push_back({qualified + t, i});
    }
  }
  return out;
}

struct SourceFile {
  std::string path;
  ScannedFile scanned;
};

/// Report every public-header function whose name appears in no scanned
/// file outside tests/, other than as a declaration or definition.
void check_callers(const std::vector<SourceFile>& files, std::vector<Finding>& findings) {
  std::map<std::string, bool> named;  // function name -> named outside tests/
  std::vector<std::pair<const SourceFile*, ApiDeclaration>> declared;
  for (const SourceFile& file : files) {
    if (!is_public_header(file.path)) continue;
    for (ApiDeclaration& decl : api_declarations(file.scanned.tokens)) {
      named.emplace(file.scanned.tokens[decl.token].text, false);
      declared.emplace_back(&file, std::move(decl));
    }
  }
  for (const SourceFile& file : files) {
    if (is_test_file(file.path)) continue;
    const std::vector<Token>& tokens = file.scanned.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const auto it = named.find(tokens[i].text);
      if (it != named.end() && !is_declarator(tokens, i)) it->second = true;
    }
  }
  for (const auto& [file, decl] : declared) {
    const Token& name = file->scanned.tokens[decl.token];
    if (named.at(name.text) || allowed(file->scanned, name.line, "callerless-api")) continue;
    findings.push_back({file->path, name.line, name.col, "callerless-api",
                        "'" + decl.qualified +
                            "' is declared in a public header but nothing outside tests/ "
                            "names it; delete it, or allow-comment why it stays"});
  }
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" || ext == ".h" ||
         ext == ".hh";
}

/// Expand the command-line paths into the file worklist, skipping
/// build trees and hidden directories.
bool collect(const std::string& arg, std::vector<std::string>& files) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root(arg);
  if (fs::is_regular_file(root, ec)) {
    files.push_back(root.string());
    return true;
  }
  if (!fs::is_directory(root, ec)) {
    std::cerr << "dls_lint: no such file or directory: " << arg << "\n";
    return false;
  }
  fs::recursive_directory_iterator it(root, fs::directory_options::skip_permission_denied, ec);
  const fs::recursive_directory_iterator end;
  for (; it != end; it.increment(ec)) {
    if (ec) {
      std::cerr << "dls_lint: " << arg << ": " << ec.message() << "\n";
      return false;
    }
    const std::string name = it->path().filename().string();
    if (it->is_directory() && (name.empty() || name[0] == '.' || name.rfind("build", 0) == 0)) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable(it->path())) files.push_back(it->path().string());
  }
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> paths;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--list-rules") {
      for (const auto& [name, why] : rule_catalog()) std::cout << name << ": " << why << "\n";
      return 0;
    }
    if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format=text") {
      json = false;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "dls_lint: unknown option " << arg << "\n"
                << "usage: dls_lint [--format=text|json] [--list-rules] <path>...\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: dls_lint [--format=text|json] [--list-rules] <path>...\n";
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& p : paths) {
    if (!collect(p, files)) return 2;
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  std::vector<SourceFile> sources;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "dls_lint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources.push_back({file, scan(file, std::move(buffer).str())});
    check(file, sources.back().scanned, findings);
  }
  check_callers(sources, findings);
  std::stable_sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.col) < std::tie(b.file, b.line, b.col);
  });

  for (const Finding& f : findings) {
    if (json) {
      std::cout << "{\"file\":\"" << json_escape(f.file) << "\",\"line\":" << f.line
                << ",\"col\":" << f.col << ",\"rule\":\"" << f.rule << "\",\"message\":\""
                << json_escape(f.message) << "\"}\n";
    } else {
      std::cout << f.file << ":" << f.line << ":" << f.col << ": error: " << f.message << " ["
                << f.rule << "]\n";
    }
  }
  return findings.empty() ? 0 : 1;
}
