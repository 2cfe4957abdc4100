// The dls_lint battery: a known-bad snippet corpus that triggers every
// rule exactly where expected (exact findings asserted), the
// allow-comment escape hatch, the bad-allow guard on unknown rule
// names, the JSON output mode, and -- the point of the tool -- a
// repo-clean assertion that the real sources under DLS_SOURCE_DIR lint
// clean.
//
// Corpus files are written under a temp root that mirrors the src/
// layout (dls_lint scopes its rules by path substring precisely so
// this works).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/dls_lint_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::system(("rm -rf " + path_).c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct LintResult {
  int exit_code = -1;
  std::string output;
};

/// Run dls_lint with `args`, capturing stdout+stderr and the exit code.
LintResult run_lint(const std::string& args) {
  LintResult result;
  FILE* pipe = ::popen((std::string(DLS_LINT_BIN) + " " + args + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Write `text` to `<root>/<rel>`, creating parent directories.
std::string write_file(const std::string& root, const std::string& rel,
                       const std::string& text) {
  const std::filesystem::path path = std::filesystem::path(root) / rel;
  std::filesystem::create_directories(path.parent_path());
  std::ofstream(path) << text;
  return path.string();
}

TEST(Lint, WallClockInSimulationPath) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/core/sched.cpp",
                                      "#include <chrono>\n"
                                      "double now() {\n"
                                      "  auto t = std::chrono::steady_clock::now();\n"
                                      "  return t.time_since_epoch().count();\n"
                                      "}\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output, file +
                          ":3:25: error: 'steady_clock' reads the wall clock; "
                          "simulation-path code is virtual-time only [wall-clock]\n");
}

TEST(Lint, WallClockFineOutsideSimulationPath) {
  // The identical code in the dist layer (deadlines are real time
  // there) is not a finding.
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/dist/deadline.cpp",
                                      "#include <chrono>\n"
                                      "double now() {\n"
                                      "  auto t = std::chrono::steady_clock::now();\n"
                                      "  return t.time_since_epoch().count();\n"
                                      "}\n");
  EXPECT_EQ(run_lint(file).exit_code, 0);
}

TEST(Lint, NondeterministicRandInSimulationPath) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/mw/noise.cpp",
                                      "#include <random>\n"
                                      "int roll() {\n"
                                      "  std::random_device rd;\n"
                                      "  std::mt19937 gen;\n"
                                      "  return rand();\n"
                                      "}\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find(file + ":3:8: error: 'random_device' draws hardware entropy"),
            std::string::npos);
  EXPECT_NE(r.output.find(file + ":4:8: error: 'mt19937' default-constructed without an "
                                 "explicit seed [nondeterministic-rand]"),
            std::string::npos);
  EXPECT_NE(r.output.find(file + ":5:10: error: 'rand()' is nondeterministically seeded"),
            std::string::npos);
}

TEST(Lint, SeededEngineAndRand48FamilyAreFine) {
  // A seeded engine construction and the *rand48 identifiers (the
  // workload's own deterministic generator) must not trip the rule.
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/workload/gen.cpp",
                                      "#include <random>\n"
                                      "double draw(unsigned seed) {\n"
                                      "  std::mt19937 gen(seed);\n"
                                      "  srand48_local(seed);\n"
                                      "  return 0.0;\n"
                                      "}\n"
                                      "void srand48_local(unsigned);\n");
  EXPECT_EQ(run_lint(file).exit_code, 0);
}

TEST(Lint, RawShardIoOutsideShardWriter) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/sweep/dump.cpp",
                                      "#include <cstdio>\n"
                                      "void dump(int fd, const char* p, unsigned long n) {\n"
                                      "  printf(\"%s\", p);\n"
                                      "  ::write(fd, p, n);\n"
                                      "}\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find(file + ":3:3: error: 'printf()' bypasses sweep::ShardWriter"),
            std::string::npos);
  EXPECT_NE(r.output.find(file + ":4:5: error: '::write()' bypasses sweep::ShardWriter"),
            std::string::npos);
  // The one sanctioned home of raw writes is exempt by name.
  const std::string writer = write_file(dir.path(), "src/sweep/shard_io.cpp",
                                        "void flush(int fd, const char* p, unsigned long n) {\n"
                                        "  ::write(fd, p, n);\n"
                                        "}\n");
  EXPECT_EQ(run_lint(writer).exit_code, 0);
}

TEST(Lint, NakedNetOutsideNetLayer) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/dist/push.cpp",
                                      "void push(int fd, const void* p, unsigned long n) {\n"
                                      "  ::send(fd, p, n, 0);\n"
                                      "}\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output, file +
                          ":2:5: error: 'send()' outside src/net; raw socket I/O belongs "
                          "behind net::Transport [naked-net]\n");
  // Member calls (transport.send) and the net layer itself are fine.
  const std::string member = write_file(dir.path(), "src/dist/relay.cpp",
                                        "bool relay(net::Transport& t, const std::string& m) {\n"
                                        "  return t.send(m);\n"
                                        "}\n");
  EXPECT_EQ(run_lint(member).exit_code, 0);
  const std::string inside = write_file(dir.path(), "src/net/raw.cpp",
                                        "void push(int fd, const void* p, unsigned long n) {\n"
                                        "  ::send(fd, p, n, 0);\n"
                                        "}\n");
  EXPECT_EQ(run_lint(inside).exit_code, 0);
}

TEST(Lint, UnboundedSleepInProtocolCode) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/dist/waiter.cpp",
                                      "#include <thread>\n"
                                      "void nap() {\n"
                                      "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                                      "}\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output, file +
                          ":3:21: error: 'sleep_for()' naps without a deadline; protocol "
                          "threads wait on a condition variable with a deadline "
                          "[unbounded-sleep]\n");
  // sleep_until (a deadline) is fine.
  const std::string deadline =
      write_file(dir.path(), "src/dist/deadline_wait.cpp",
                 "#include <thread>\n"
                 "void nap(std::chrono::steady_clock::time_point t) {\n"
                 "  std::this_thread::sleep_until(t);\n"
                 "}\n");
  EXPECT_EQ(run_lint(deadline).exit_code, 0);
}

TEST(Lint, BareMutexInThreadedSubsystem) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/pool/queue.cpp",
                                      "#include <mutex>\n"
                                      "struct Q {\n"
                                      "  std::mutex m;\n"
                                      "};\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output, file +
                          ":3:8: error: 'std::mutex' in a threaded subsystem; use the "
                          "annotated support::Mutex/LockGuard wrappers [bare-mutex]\n");
  // The support wrappers themselves are outside the rule's scope.
  const std::string wrapper = write_file(dir.path(), "src/support/include/support/sync.hpp",
                                         "#include <mutex>\n"
                                         "struct W { std::mutex m; };\n");
  EXPECT_EQ(run_lint(wrapper).exit_code, 0);
}

TEST(Lint, NodeMapInEventCoreHotPath) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/simx/table.cpp",
                                      "#include <map>\n"
                                      "struct Table {\n"
                                      "  std::map<int, double> routes;\n"
                                      "  std::unordered_map<unsigned, double> costs;\n"
                                      "};\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find(file + ":3:8: error: 'std::map' in event-core code"),
            std::string::npos);
  EXPECT_NE(r.output.find(file + ":4:8: error: 'std::unordered_map' in event-core code"),
            std::string::npos);
  EXPECT_NE(r.output.find("[map-in-hot-path]"), std::string::npos);
}

TEST(Lint, NodeMapInDirectSimulatorHotPath) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/hagerup/free_list.cpp",
                                      "#include <map>\n"
                                      "std::multimap<double, unsigned> g_free_at;\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find(file + ":2:6: error: 'std::multimap' in event-core code"),
            std::string::npos);
  EXPECT_NE(r.output.find("[map-in-hot-path]"), std::string::npos);
}

TEST(Lint, NodeMapFineOutsideEventCore) {
  // The identical container in a cold layer (experiment parsing) and a
  // non-std map type in the hot layer are both fine.
  const TempDir dir;
  const std::string cold = write_file(dir.path(), "src/sweep/experiment.cpp",
                                      "#include <map>\n"
                                      "std::map<int, int> g_lines;\n");
  EXPECT_EQ(run_lint(cold).exit_code, 0);
  const std::string flat = write_file(dir.path(), "src/mw/cache.cpp",
                                      "struct Shape { flat::map<int, int> cells; };\n");
  EXPECT_EQ(run_lint(flat).exit_code, 0);
}

TEST(Lint, NodeMapAllowedForConstructionPaths) {
  const TempDir dir;
  const std::string file =
      write_file(dir.path(), "src/mw/parse.cpp",
                 "#include <map>\n"
                 "// dls-lint: allow(map-in-hot-path)  construction-time only\n"
                 "std::map<int, int> g_construction_index;\n");
  EXPECT_EQ(run_lint(file).exit_code, 0);
}

TEST(Lint, AllowCommentSuppressesOnItsLine) {
  const TempDir dir;
  const std::string file =
      write_file(dir.path(), "src/pool/queue.cpp",
                 "#include <mutex>\n"
                 "struct Q {\n"
                 "  std::mutex m;  // dls-lint: allow(bare-mutex)\n"
                 "};\n");
  EXPECT_EQ(run_lint(file).exit_code, 0);
}

TEST(Lint, AllowCommentAloneCoversNextLine) {
  const TempDir dir;
  const std::string file =
      write_file(dir.path(), "src/pool/queue.cpp",
                 "#include <mutex>\n"
                 "struct Q {\n"
                 "  // dls-lint: allow(bare-mutex)\n"
                 "  std::mutex m;\n"
                 "};\n");
  EXPECT_EQ(run_lint(file).exit_code, 0);
}

TEST(Lint, AllowCommentSuppressesOnlyTheNamedRule) {
  const TempDir dir;
  const std::string file =
      write_file(dir.path(), "src/pool/queue.cpp",
                 "#include <mutex>\n"
                 "struct Q {\n"
                 "  std::mutex m;  // dls-lint: allow(unbounded-sleep)\n"
                 "};\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("[bare-mutex]"), std::string::npos);
}

TEST(Lint, UnknownRuleInAllowIsItselfAFinding) {
  const TempDir dir;
  const std::string file =
      write_file(dir.path(), "src/pool/clean.cpp",
                 "// dls-lint: allow(no-such-rule)\n"
                 "int x;\n");
  const LintResult r = run_lint(file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output, file +
                          ":1:1: error: unknown rule 'no-such-rule' in dls-lint allow "
                          "comment [bad-allow]\n");
}

TEST(Lint, BannedNamesInCommentsAndStringsAreIgnored) {
  const TempDir dir;
  const std::string file = write_file(
      dir.path(), "src/core/doc.cpp",
      "// steady_clock and rand() are banned here -- in CODE, not prose.\n"
      "const char* kMsg = \"do not call ::send() or printf() yourself\";\n"
      "/* std::mutex in a block comment */\n");
  EXPECT_EQ(run_lint(file).exit_code, 0);
}

TEST(Lint, JsonFormatIsMachineReadable) {
  const TempDir dir;
  const std::string file = write_file(dir.path(), "src/pool/queue.cpp",
                                      "#include <mutex>\n"
                                      "std::mutex g;\n");
  const LintResult r = run_lint("--format=json " + file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output, "{\"file\":\"" + file +
                          "\",\"line\":2,\"col\":6,\"rule\":\"bare-mutex\","
                          "\"message\":\"'std::mutex' in a threaded subsystem; use the "
                          "annotated support::Mutex/LockGuard wrappers\"}\n");
}

TEST(Lint, ListRulesNamesEveryRule) {
  const LintResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule : {"wall-clock", "nondeterministic-rand", "raw-shard-io",
                           "naked-net", "unbounded-sleep", "bare-mutex",
                           "map-in-hot-path"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  }
}

TEST(Lint, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("").exit_code, 2);
  EXPECT_EQ(run_lint("--no-such-flag x").exit_code, 2);
  EXPECT_EQ(run_lint("/no/such/path_anywhere").exit_code, 2);
}

TEST(Lint, RepoIsClean) {
  // The teeth: the real sources must stay lint-clean.  Any new finding
  // either gets fixed or an explicit, justified allow comment.
  const std::string root = DLS_SOURCE_DIR;
  const LintResult r =
      run_lint(root + "/src " + root + "/tools " + root + "/tests");
  EXPECT_EQ(r.output, "");
  EXPECT_EQ(r.exit_code, 0);
}

}  // namespace
