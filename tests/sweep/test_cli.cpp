// dls_sweep's numeric flags, through the real binary (DLS_SWEEP_BIN):
// a malformed shard or a negative count is a usage error (exit 2) that
// names the flag, never a run on a misread value.  So is a swept spec
// value that does not parse, or a `sweep backend` line, and neither
// leaves a record file behind; merge and report refuse flags of the
// other modes.  Run-mode cases pass
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

/// Run the shell `command` with stderr folded into its output.
Outcome run_tool_raw(const std::string& command_line) {
  const std::string command = command_line + " 2>&1";
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

Outcome run_tool(const std::string& args) {
  return run_tool_raw(std::string(DLS_SWEEP_BIN) + " " + args);
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

TEST(SweepCli, ReportReadsOneRecordFileOrPairs) {
  expect_usage_errors({{"report", "pairs"},
                       {"report a.jsonl b.jsonl c.jsonl", "pairs"},
                       {"report cli_no_such_records.jsonl", "cannot open cli_no_such_records.jsonl"},
                       {"report - </dev/null", "no records"}});
  // One record file, here on stdin, shows each record's cell.
  const std::string bin = DLS_SWEEP_BIN;
  const Outcome run = run_tool_raw(
      "printf 'technique SS\\ntasks 64\\nworkers 2\\nworkload constant:1.0\\nreplicas 3\\n' | " +
      bin + " - --quiet | " + bin + " report -");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.rfind("cell 0: technique SS, 64 tasks x 1 timesteps, 2 workers, ", 0), 0u)
      << run.output;
  EXPECT_NE(run.output.find("3 replicas (seeds 42..44)"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("| makespan [s]            | 32.0000 | 0.0000 | 32.0000 | 32.0000 |"),
            std::string::npos)
      << run.output;
}

TEST(SweepCli, AValueFlagWithoutAValueIsAUsageError) {
  // A value flag never falls back to the string "true" (`--out` alone
  // would write the records to ./true): it exits 2 naming the flag,
  // and the scratch directory it ran in stays empty.
  char dir_template[] = "/tmp/dls_sweep_cli_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  const std::string in_dir = "cd " + std::string(dir) + " && " + DLS_SWEEP_BIN + " ";
  for (const auto& [args, flag] :
       std::vector<Case>{{kSpec + " --list --out", "--out"},
                         {kSpec + " --out --quiet", "--out"},
                         {"merge --out", "--out"},
                         {"coordinate " + kSpec + " --out o --workdir", "--workdir"}}) {
    const Outcome outcome = run_tool_raw(in_dir + args);
    EXPECT_EQ(outcome.exit_code, 2) << args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find(flag + " needs a value"), std::string::npos)
        << args << "\n" << outcome.output;
  }
  struct stat info {};
  EXPECT_NE(::stat((std::string(dir) + "/true").c_str(), &info), 0) << "a file named true";
  EXPECT_EQ(::rmdir(dir), 0) << dir << " is not empty";
}

TEST(SweepCli, AnUnknownBackendFlagNamesTheFlag) {
  // Checked with the flags, in run, --list, coordinate and serve: the
  // message names --backend, not a spec line appended behind the user's
  // back.
  const std::string expected =
      "--backend nope: unknown backend 'nope' (known: bbn | hagerup | mw | runtime)";
  for (const std::string& args :
       {kSpec + " --backend nope", kSpec + " --list --backend nope",
        "coordinate " + kSpec + " --out cli_never.jsonl --workdir cli_never_wd --backend nope",
        "serve " + kSpec + " --listen 127.0.0.1:0 --out cli_never.jsonl --workdir cli_never_wd "
                           "--backend nope"}) {
    const Outcome outcome = run_tool(args);
    EXPECT_EQ(outcome.exit_code, 2) << args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find(expected), std::string::npos) << args << "\n" << outcome.output;
    EXPECT_EQ(outcome.output.find("line"), std::string::npos) << args << "\n" << outcome.output;
  }
  struct stat info {};
  EXPECT_NE(::stat("cli_never_wd", &info), 0) << "cli_never_wd was created";
}

TEST(SweepCli, MergeAndReportRefuseFlagsOfOtherModes) {
  // merge takes only --out and report only --csv.  Any other flag exits
  // 2 naming it, before anything is written: a report asked for
  // `--out x` would otherwise print to stdout and write no x.  --csv is
  // no run-mode flag either.
  char dir_template[] = "/tmp/dls_sweep_cli_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  const std::string in_dir = "cd " + std::string(dir) + " && " + DLS_SWEEP_BIN + " ";
  const Outcome run = run_tool_raw(
      "cd " + std::string(dir) +
      " && printf 'technique SS\\ntasks 64\\nworkers 2\\nworkload constant:1.0\\n' | " +
      DLS_SWEEP_BIN + " - --quiet --out r.jsonl");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  for (const auto& [args, flag] :
       std::vector<Case>{{"report r.jsonl --out x", "unknown flag --out"},
                         {"report r.jsonl --threads 3 --resume", "unknown flag --threads"},
                         {"report r.jsonl r.jsonl --backend mw", "unknown flag --backend"},
                         {"merge --threads 3 r.jsonl", "unknown flag --threads"},
                         {"merge --out x --csv r.jsonl", "unknown flag --csv"},
                         {"merge --out x --resume r.jsonl", "unknown flag --resume"},
                         {"r.jsonl --list --csv", "unknown flag --csv"}}) {
    const Outcome outcome = run_tool_raw(in_dir + args);
    EXPECT_EQ(outcome.exit_code, 2) << args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find(flag), std::string::npos) << args << "\n" << outcome.output;
  }
  struct stat info {};
  EXPECT_NE(::stat((std::string(dir) + "/x").c_str(), &info), 0) << "x was written";

  // Each mode's own flag still works.
  EXPECT_EQ(run_tool_raw(in_dir + "merge --out m.jsonl r.jsonl").exit_code, 0);
  std::ifstream merged(std::string(dir) + "/m.jsonl");
  std::ifstream records(std::string(dir) + "/r.jsonl");
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(merged)), {}),
            std::string((std::istreambuf_iterator<char>(records)), {}));
  const Outcome csv = run_tool_raw(in_dir + "report r.jsonl r.jsonl --csv");
  EXPECT_EQ(csv.exit_code, 0) << csv.output;
  EXPECT_NE(csv.output.find("\nPEs,SS\n2,"), std::string::npos) << csv.output;
  for (const char* name : {"/r.jsonl", "/m.jsonl"}) {
    EXPECT_EQ(std::remove((std::string(dir) + name).c_str()), 0) << name;
  }
  EXPECT_EQ(::rmdir(dir), 0) << dir << " is not empty";
}

}  // namespace
