// dls_sweep's numeric flags, through the real binary (DLS_SWEEP_BIN):
// a malformed shard or a negative count is a usage error (exit 2) that
// names the flag, never a run on a misread value.  So is a swept spec
// value that does not parse, or a `sweep backend` line, and neither
// leaves a record file behind.  Run-mode cases pass
// --list, so a flag that slipped through would print cells and exit 0
// instead of sweeping.  A --resume whose rewrite of the surviving
// records fails is a run error (exit 1) that leaves them in place.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace {

struct Outcome {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

Outcome run_tool(const std::string& args) {
  const std::string command = std::string(DLS_SWEEP_BIN) + " " + args + " 2>&1";
  Outcome outcome;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buffer[4096];
  while (const std::size_t n = std::fread(buffer, 1, sizeof buffer, pipe)) {
    outcome.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  outcome.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return outcome;
}

const std::string kSpec = std::string(DLS_SWEEP_SPEC_DIR) + "/fig5_simulation.sweep";

/// (arguments, the flag the error must name)
using Case = std::pair<std::string, std::string>;

void expect_usage_errors(const std::vector<Case>& cases) {
  for (const auto& [args, flag] : cases) {
    const Outcome outcome = run_tool(args);
    EXPECT_EQ(outcome.exit_code, 2) << args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find(flag), std::string::npos) << args << "\n" << outcome.output;
  }
}

TEST(SweepCli, RejectsMalformedShards) {
  expect_usage_errors({{kSpec + " --list --shard 0/4x", "--shard"},
                       {kSpec + " --list --shard 1/2/3", "--shard"},
                       {kSpec + " --list --shard 0/-2", "--shard"},
                       {kSpec + " --list --shard -1/2", "--shard"},
                       {kSpec + " --list --shard 3", "--shard"},
                       {kSpec + " --list --shard /2", "--shard"},
                       {kSpec + " --list --shard 2/2", "--shard"}});
  // The well-formed shard still lists its cells.
  const Outcome ok = run_tool(kSpec + " --list --shard 1/4");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_EQ(ok.output.rfind("cell 1 ", 0), 0u) << ok.output;
}

TEST(SweepCli, RejectsNegativeCountsInRunMode) {
  expect_usage_errors({{kSpec + " --list --threads -1", "--threads"},
                       {kSpec + " --list --max-cells -1", "--max-cells"},
                       {kSpec + " --list --threads x", "--threads"},
                       {kSpec + " --list --threads 99999999999", "--threads"}});
}

TEST(SweepCli, RejectsNegativeCountsInCoordinateAndServe) {
  const std::string coordinate =
      "coordinate " + kSpec + " --out cli_never.jsonl --workdir cli_never_wd";
  const std::string serve = "serve " + kSpec +
                            " --listen 127.0.0.1:0 --out cli_never.jsonl --workdir cli_never_wd";
  std::vector<Case> cases;
  for (const char* flag : {"--workers", "--stripes", "--max-attempts", "--chaos-kills",
                           "--threads", "--heartbeat-ms", "--deadline-ms", "--backoff-ms",
                           "--backoff-cap-ms"}) {
    cases.emplace_back(coordinate + " " + flag + " -1", flag);
  }
  cases.emplace_back(serve + " --accept-grace-ms -1", "--accept-grace-ms");
  cases.emplace_back(serve + " --workers -1", "--workers");
  expect_usage_errors(cases);
}

TEST(SweepCli, RejectsNegativeCountsInWorkMode) {
  const std::string work = "work";
  std::vector<Case> cases;
  for (const char* flag : {"--threads", "--heartbeat-ms", "--idle-ms", "--connect-attempts",
                           "--connect-backoff-ms", "--chaos-after"}) {
    cases.emplace_back(work + " " + flag + " -1", flag);
  }
  expect_usage_errors(cases);
}

TEST(SweepCli, NonFiniteAxisValueIsAUsageError) {
  // A zero count is the same kind of bad axis value: it names its rule,
  // not a missing key.
  struct BadAxis {
    std::string key;
    std::string values;
    std::string rule;
  };
  const std::string spec = "cli_nan_axis.sweep";
  const std::string out = "cli_nan_axis.jsonl";
  for (const BadAxis& axis : {BadAxis{"latency", "1e-6 nan", "latency must be finite"},
                              BadAxis{"h", "0.5 nan", "h must be finite"},
                              BadAxis{"tasks", "4 0", "tasks must be >= 1"},
                              BadAxis{"workers", "4 0", "workers must be >= 1"}}) {
    std::remove(out.c_str());
    {
      std::ofstream file(spec);
      file << "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\n"
              "sweep " << axis.key << " " << axis.values << "\n";
    }
    const Outcome outcome = run_tool(spec + " --out " + out);
    EXPECT_EQ(outcome.exit_code, 2) << outcome.output;
    EXPECT_NE(outcome.output.find(axis.rule), std::string::npos) << outcome.output;
    EXPECT_EQ(outcome.output.find("missing"), std::string::npos) << outcome.output;
    EXPECT_FALSE(std::ifstream(out).good()) << "a record file was written for " << axis.key;
  }
  std::remove(spec.c_str());
  std::remove(out.c_str());
}

TEST(SweepCli, FailedResumeRewriteIsARunErrorThatKeepsTheRecords) {
  // --resume rewrites the surviving records atomically (temp file +
  // fsync + rename).  When the temp file cannot be created, the run
  // fails with exit 1 naming the output, and the records are intact.
  const std::string spec = "cli_resume.sweep";
  const std::string out = "cli_resume.jsonl";
  const std::string blocker = out + ".tmp";
  std::remove(out.c_str());
  ::rmdir(blocker.c_str());
  std::ofstream(spec) << "technique SS\ntasks 64\nworkload constant:1.0\nsweep workers 2 4\n";
  ASSERT_EQ(run_tool(spec + " --out " + out + " --max-cells 1 --quiet").exit_code, 0);
  std::ifstream first(out);
  const std::string record((std::istreambuf_iterator<char>(first)), {});
  ASSERT_EQ(::mkdir(blocker.c_str(), 0755), 0);

  const Outcome outcome = run_tool(spec + " --out " + out + " --resume --quiet");
  EXPECT_EQ(outcome.exit_code, 1) << outcome.output;
  EXPECT_NE(outcome.output.find(out), std::string::npos) << outcome.output;
  std::ifstream after(out);
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(after)), {}), record);

  ::rmdir(blocker.c_str());
  std::remove(spec.c_str());
  std::remove(out.c_str());
}

TEST(SweepCli, InlineOverheadNeedsTheHagerupBackend) {
  // `overhead inline` is the direct simulator's accounting: on mw (the
  // default) or bbn the spec is a usage error naming its line.
  const std::string spec = "cli_inline.sweep";
  std::ofstream(spec) << "technique SS\ntasks 64\nworkload constant:1.0\noverhead inline\n"
                         "sweep workers 2 4\n";
  expect_usage_errors({{spec + " --list", "experiment line 4 ('overhead inline')"},
                       {spec + " --list --backend bbn", "experiment line 4 ('overhead inline')"}});
  EXPECT_EQ(run_tool(spec + " --list --backend hagerup").exit_code, 0);
  std::remove(spec.c_str());
}

TEST(SweepCli, ABackendAxisIsAUsageErrorInEveryEntryPoint) {
  // A grid runs on one backend: run, --list, coordinate and serve all
  // refuse a `sweep backend` line, naming it and the per-backend runs
  // plus merge that replace it, before writing any file.
  const std::string spec = "cli_backend_axis.sweep";
  std::ofstream(spec) << "technique SS\ntasks 64\nworkload constant:1.0\n"
                         "sweep backend mw hagerup\n";
  const std::string out = "cli_backend_axis.jsonl";
  const std::string workdir = "cli_backend_axis_wd";
  for (const std::string& args :
       {spec + " --out " + out, spec + " --list", spec + " --list --backend hagerup",
        "coordinate " + spec + " --out " + out + " --workdir " + workdir + " --workers 1",
        "serve " + spec + " --listen 127.0.0.1:0 --out " + out + " --workdir " + workdir}) {
    const Outcome outcome = run_tool(args);
    EXPECT_EQ(outcome.exit_code, 2) << args << "\n" << outcome.output;
    for (const char* needle : {"sweep line 4 ('sweep backend mw hagerup')", "--backend <name>",
                               "dls_sweep merge"}) {
      EXPECT_NE(outcome.output.find(needle), std::string::npos) << args << "\n"
                                                                << outcome.output;
    }
  }
  struct stat info {};
  EXPECT_NE(::stat(out.c_str(), &info), 0) << out << " was written";
  EXPECT_NE(::stat(workdir.c_str(), &info), 0) << workdir << " was created";
  std::remove(spec.c_str());
}

TEST(SweepCli, ReportNeedsFilePairs) {
  expect_usage_errors({{"report", "pairs"},
                       {"report only_one.jsonl", "pairs"},
                       {"report a.jsonl b.jsonl c.jsonl", "pairs"}});
}

}  // namespace
