// The experiment-file grammar (sweep/experiment.hpp) in process, and
// dls_sim -- a one-cell dls_sweep -- through the real binary
// (DLS_SIM_BIN), checked against the dls_sweep record of the same file.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "mw/simulation.hpp"
#include "support/table.hpp"
#include "sweep/experiment.hpp"
#include "sweep/record.hpp"
#include "workload/task_times.hpp"

namespace {

constexpr const char* kValid = R"(
# a complete experiment description
technique FAC2
tasks     1024
workers   8
workload  exponential:1.0
h         0.5
seed      7
)";

TEST(ExperimentFile, ParsesValidDescription) {
  const mw::Config cfg = sweep::parse_experiment_spec(kValid).config;
  EXPECT_EQ(cfg.technique, dls::Kind::kFAC2);
  EXPECT_EQ(cfg.tasks, 1024u);
  EXPECT_EQ(cfg.workers, 8u);
  EXPECT_DOUBLE_EQ(cfg.params.h, 0.5);
  EXPECT_EQ(cfg.seed, 7u);
  // mu/sigma default to the workload's moments.
  EXPECT_DOUBLE_EQ(cfg.params.mu, 1.0);
  EXPECT_DOUBLE_EQ(cfg.params.sigma, 1.0);
}

TEST(ExperimentFile, ExplicitMuSigmaOverride) {
  const mw::Config cfg = sweep::parse_experiment_spec(
      "technique BOLD\ntasks 100\nworkers 2\nworkload exponential:2.0\nmu 5\nsigma 0.5\n").config;
  EXPECT_DOUBLE_EQ(cfg.params.mu, 5.0);
  EXPECT_DOUBLE_EQ(cfg.params.sigma, 0.5);
}

TEST(ExperimentFile, AllKeysAccepted) {
  const char* text = R"(
technique GSS
tasks     500
workers   4
workload  constant:0.001
h         0.0001
timesteps 2
seed      3
overhead  simulated
latency   1e-5
bandwidth 1e8
css_chunk 10
gss_min   5
rand48    true
)";
  const mw::Config cfg = sweep::parse_experiment_spec(text).config;
  EXPECT_EQ(cfg.timesteps, 2u);
  EXPECT_EQ(cfg.overhead_mode, mw::OverheadMode::kSimulated);
  EXPECT_DOUBLE_EQ(cfg.latency, 1e-5);
  EXPECT_EQ(cfg.params.gss_min_chunk, 5u);
  EXPECT_TRUE(cfg.use_rand48);
}

TEST(ExperimentFile, UnknownKeyIsAnErrorWithLineNumber) {
  try {
    (void)sweep::parse_experiment_spec("technique SS\nbanana 1\n");
    FAIL() << "expected error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }
}

TEST(ExperimentFile, RejectsMalformedInput) {
  EXPECT_THROW((void)sweep::parse_experiment_spec("technique\n"), std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec("technique SS extra\n"), std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec("technique NOPE\ntasks 1\nworkers 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec("tasks -5\n"), std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec("overhead maybe\n"), std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec("rand48 maybe\n"), std::invalid_argument);
}

TEST(ExperimentFile, RequiresMandatoryKeys) {
  EXPECT_THROW((void)sweep::parse_experiment_spec("technique SS\nworkers 2\nworkload constant:1\n"),
               std::invalid_argument);  // no tasks
  EXPECT_THROW((void)sweep::parse_experiment_spec("technique SS\ntasks 10\nworkload constant:1\n"),
               std::invalid_argument);  // no workers
  EXPECT_THROW((void)sweep::parse_experiment_spec("technique SS\ntasks 10\nworkers 2\n"),
               std::invalid_argument);  // no workload
}

TEST(ExperimentFile, ParsesReplicasAndThreads) {
  const sweep::ExperimentSpec spec = sweep::parse_experiment_spec(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nreplicas 20\nthreads 2\n");
  EXPECT_EQ(spec.replicas, 20u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_THROW((void)sweep::parse_experiment_spec(
                   "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nreplicas 0\n"),
               std::invalid_argument);
  // Default stays a single run.
  EXPECT_EQ(sweep::parse_experiment_spec(kValid).replicas, 1u);
}

TEST(ExperimentFile, ParsesSeedStride) {
  const sweep::ExperimentSpec spec = sweep::parse_experiment_spec(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nreplicas 3\nseed_stride 104729\n");
  EXPECT_EQ(spec.seed_stride, 104729u);
  EXPECT_EQ(sweep::parse_experiment_spec(kValid).seed_stride, 1u);  // default
  EXPECT_THROW((void)sweep::parse_experiment_spec(
                   "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nseed_stride 0\n"),
               std::invalid_argument);
  // Round-trips through the serializer (omitted at its default of 1).
  const std::string text = sweep::serialize_experiment_spec(spec);
  EXPECT_NE(text.find("seed_stride 104729"), std::string::npos) << text;
  EXPECT_EQ(sweep::parse_experiment_spec(text).seed_stride, 104729u);
  const std::string no_stride =
      sweep::serialize_experiment_spec(sweep::parse_experiment_spec(kValid));
  EXPECT_EQ(no_stride.find("seed_stride"), std::string::npos) << no_stride;
}

TEST(ExperimentFile, Full64BitSeedsRoundTripExactly) {
  // Grid records carry splitmix64-derived seeds that use all 64 bits; a
  // double-path parse would silently round them and the record's
  // replayable `experiment` echo would replay a *different* run.
  const sweep::ExperimentSpec spec = sweep::parse_experiment_spec(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nseed 13679457532755275413\n");
  EXPECT_EQ(spec.config.seed, 13679457532755275413ULL);
  const std::string text = sweep::serialize_experiment_spec(spec);
  EXPECT_EQ(sweep::parse_experiment_spec(text).config.seed, 13679457532755275413ULL);
  // Scientific notation still works where it is exact.
  EXPECT_EQ(sweep::parse_experiment_spec("technique SS\ntasks 64\nworkers 2\n"
                                    "workload constant:1.0\nseed 1e6\n").config
                .seed,
            1000000u);
}

TEST(ExperimentFile, OutOfRangeNumberIsALineNumberedError) {
  // std::stod throws out_of_range for "1e999"; the wrapper must turn
  // that into the usual line-numbered parse error, not propagate a
  // bare out_of_range (or worse, clamp silently).
  try {
    (void)sweep::parse_experiment_spec("technique SS\ntasks 64\nworkers 2\n"
                                  "workload constant:1.0\nlatency 1e999\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 5"), std::string::npos) << message;
    EXPECT_NE(message.find("latency 1e999"), std::string::npos) << message;
    EXPECT_NE(message.find("out of range"), std::string::npos) << message;
  }
}

TEST(ExperimentFile, SweepLineIsRejectedWithGridHint) {
  // A grid spec fed to the single-experiment parser must fail loudly
  // and point at dls_sweep, not die on a confusing trailing token.
  try {
    (void)sweep::parse_experiment_spec("technique SS\nsweep workers 2 4 8\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find("dls_sweep"), std::string::npos) << message;
  }
}

TEST(ExperimentFile, ParsesSystemInformationExtensions) {
  const char* text = R"(
technique WF
tasks     200
workers   3
workload  constant:1
host_speed 2e9
request_bytes 128
reply_bytes   32
speeds    1,0.5,2
weights   1,1,2
failures  inf,3.5,inf
profile1  0:2e9,5:0,10:1e9
)";
  const mw::Config cfg = sweep::parse_experiment_spec(text).config;
  EXPECT_DOUBLE_EQ(cfg.host_speed, 2e9);
  EXPECT_EQ(cfg.request_bytes, 128u);
  EXPECT_EQ(cfg.reply_bytes, 32u);
  ASSERT_EQ(cfg.worker_speed_factors.size(), 3u);
  EXPECT_DOUBLE_EQ(cfg.worker_speed_factors[1], 0.5);
  ASSERT_EQ(cfg.params.weights.size(), 3u);
  EXPECT_DOUBLE_EQ(cfg.params.weights[2], 2.0);
  ASSERT_EQ(cfg.worker_failure_times.size(), 3u);
  EXPECT_TRUE(std::isinf(cfg.worker_failure_times[0]));
  EXPECT_DOUBLE_EQ(cfg.worker_failure_times[1], 3.5);
  // All three workers get a profile; the unnamed ones keep their
  // constant speed host_speed * factor.
  ASSERT_EQ(cfg.worker_speed_profiles.size(), 3u);
  EXPECT_EQ(cfg.worker_speed_profiles[1].time_points.size(), 3u);
  EXPECT_DOUBLE_EQ(cfg.worker_speed_profiles[1].speeds[1], 0.0);
  EXPECT_DOUBLE_EQ(cfg.worker_speed_profiles[0].speeds[0], 2e9 * 1.0);
  EXPECT_DOUBLE_EQ(cfg.worker_speed_profiles[2].speeds[0], 2e9 * 2.0);
}

TEST(ExperimentFile, ExtensionsValidatePerWorkerSizes) {
  const char* base = "technique SS\ntasks 10\nworkers 3\nworkload constant:1\n";
  EXPECT_THROW((void)sweep::parse_experiment_spec(std::string(base) + "speeds 1,2\n"),
               std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec(std::string(base) + "failures 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec(std::string(base) + "weights 1,2,3,4\n"),
               std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec(std::string(base) + "profile7 0:1e9\n"),
               std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_experiment_spec(std::string(base) + "profile0 5:1e9\n"),
               std::invalid_argument);  // profile must start at t = 0
  EXPECT_THROW((void)sweep::parse_experiment_spec(std::string(base) + "profileX 0:1e9\n"),
               std::invalid_argument);
  // Non-finite or non-positive network and speed values are rejected
  // on their own line, not left to produce a NaN makespan.
  for (const char* line :
       {"latency nan\n", "latency inf\n", "latency -1\n", "bandwidth nan\n", "bandwidth 0\n",
        "bandwidth -1\n", "host_speed inf\n", "host_speed nan\n", "speeds 1,inf,1\n",
        "speeds 1,nan,1\n", "speeds 1,0,1\n", "speeds 1,-2,1\n",
        // Scheduling parameters, run shape and per-worker lists: each
        // would otherwise run (NaN or negative results, a truncated
        // thread count) or fail only at run time.
        "h nan\n", "h -1\n", "h inf\n", "mu nan\n", "mu -1\n", "mu inf\n", "sigma nan\n",
        "sigma -0.5\n", "timesteps 0\n", "threads 4294967297\n", "failures -5,inf,inf\n",
        "failures nan,inf,inf\n", "failures -inf,1,1\n", "weights -1,1,1\n",
        "weights nan,1,1\n", "weights inf,1,1\n", "weights 0,1,1\n"}) {
    try {
      (void)sweep::parse_experiment_spec(std::string(base) + line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos) << e.what();
    }
  }
  // The limits themselves are legal: mu = 0 is FAC's run-time error,
  // not a parse error, and an infinite failure time means "never".
  const sweep::ExperimentSpec edge = sweep::parse_experiment_spec(
      std::string(base) + "h 0\nmu 0\nsigma 0\ntimesteps 1\nthreads 4294967295\n"
                          "failures 0,inf,inf\nweights 0.5,1,2\n");
  EXPECT_EQ(edge.threads, 4294967295u);
  EXPECT_TRUE(std::isinf(edge.config.worker_failure_times[1]));
  // An infinite bandwidth is legal: transfers then cost only latency.
  EXPECT_TRUE(std::isinf(
      sweep::parse_experiment_spec(std::string(base) + "bandwidth inf\n").config.bandwidth));
}

TEST(ExperimentFile, ParseErrorsNameTheOffendingLine) {
  auto message_of = [](const char* text) {
    try {
      (void)sweep::parse_experiment_spec(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // The message carries the line number AND the raw line text.
  const std::string unknown = message_of("technique SS\nworklod exponential:1\n");
  EXPECT_NE(unknown.find("line 2"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("worklod exponential:1"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("unknown key"), std::string::npos) << unknown;

  const std::string bad_value = message_of("tasks banana\n");
  EXPECT_NE(bad_value.find("line 1"), std::string::npos) << bad_value;
  EXPECT_NE(bad_value.find("tasks banana"), std::string::npos) << bad_value;

  const std::string trailing = message_of("technique SS extra\n");
  EXPECT_NE(trailing.find("technique SS extra"), std::string::npos) << trailing;
}

TEST(ExperimentFile, SerializeParseRoundTripIsIdentity) {
  // parse -> serialize -> parse must be the identity on the spec:
  // serialize of both parses renders byte-identical text.
  const char* cases[] = {
      "technique FAC2\ntasks 1024\nworkers 8\nworkload exponential:1\nh 0.5\nseed 7\n",
      "technique STAT\ntasks 64\nworkers 2\nworkload constant:0.002\n",
      "technique GSS\ntasks 500\nworkers 4\nworkload constant:0.001\nh 0.0001\ntimesteps 2\n"
      "seed 3\noverhead simulated\nlatency 1e-5\nbandwidth 1e8\ngss_min 5\nrand48 true\n",
      "technique WF\ntasks 200\nworkers 3\nworkload uniform:0.5,1.5\nhost_speed 2e9\n"
      "speeds 1,0.5,2\nweights 1,1,2\nfailures inf,3.5,inf\nprofile1 0:2e9,5:0,10:1e9\n"
      "request_bytes 128\nreply_bytes 32\n",
      "technique BOLD\ntasks 4096\nworkers 16\nworkload exponential:1\nh 0.5\nrand48 true\n"
      "replicas 12\nthreads 2\n",
      "technique CSS\ntasks 77\nworkers 3\nworkload ramp:2,0.1\ncss_chunk 9\nmu 1.5\nsigma 0.25\n",
      "technique SS\ntasks 10\nworkers 2\nworkload constant:1\nlatency 0\nbandwidth inf\n",
  };
  for (const char* text : cases) {
    const sweep::ExperimentSpec once = sweep::parse_experiment_spec(text);
    const std::string serialized = sweep::serialize_experiment_spec(once);
    sweep::ExperimentSpec twice;
    ASSERT_NO_THROW(twice = sweep::parse_experiment_spec(serialized)) << serialized;
    EXPECT_EQ(sweep::serialize_experiment_spec(twice), serialized) << text;

    // The round-tripped spec runs to the identical result.
    const mw::RunResult a = mw::run_simulation(once.config);
    const mw::RunResult b = mw::run_simulation(twice.config);
    EXPECT_EQ(a.makespan, b.makespan) << text;
    EXPECT_EQ(a.chunk_count, b.chunk_count) << text;
  }
}

TEST(ExperimentFile, SerializeOmitsDefaults) {
  const sweep::ExperimentSpec spec = sweep::parse_experiment_spec(
      "technique SS\ntasks 10\nworkers 2\nworkload constant:1\n");
  const std::string text = sweep::serialize_experiment_spec(spec);
  EXPECT_EQ(text.find("latency"), std::string::npos);
  EXPECT_EQ(text.find("timesteps"), std::string::npos);
  EXPECT_EQ(text.find("overhead"), std::string::npos);
  EXPECT_EQ(text.find("h "), std::string::npos);
  EXPECT_NE(text.find("technique SS"), std::string::npos);
  EXPECT_NE(text.find("seed 42"), std::string::npos);
}

TEST(ExperimentFile, SerializeRejectsInexpressibleSpecs) {
  sweep::ExperimentSpec spec;
  EXPECT_THROW((void)sweep::serialize_experiment_spec(spec), std::invalid_argument);
  spec = sweep::parse_experiment_spec("technique SS\ntasks 10\nworkers 2\nworkload constant:1\n");
  spec.config.workload = workload::trace({1.0, 2.0});
  EXPECT_THROW((void)sweep::serialize_experiment_spec(spec), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// dls_sim as a process.
// ---------------------------------------------------------------------------

struct Outcome {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

/// Run `tool args` with `spec` on stdin (the tool reads '-').
Outcome run_on_stdin(const std::string& tool, const std::string& spec,
                     const std::string& args = "") {
  const std::string command = tool + " - " + args + " 2>&1 <<'EOF'\n" + spec + "EOF\n";
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

Outcome run_sim(const std::string& spec, const std::string& args = "") {
  return run_on_stdin(DLS_SIM_BIN, spec, args);
}

using Row = std::vector<std::string>;

/// The trimmed cells of the table row of `output` labelled `label`
/// (label first); empty if there is no such row.
Row row_of(const std::string& output, const std::string& label) {
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) {
    if (!line.starts_with("| " + label + " ")) continue;
    Row cells;
    std::istringstream fields(line.substr(1));
    for (std::string field; std::getline(fields, field, '|');) {
      field.erase(0, field.find_first_not_of(' '));
      field.erase(field.find_last_not_of(' ') + 1);
      cells.push_back(field);
    }
    return cells;
  }
  return {};
}

TEST(DlsSim, RunProducesMeasuredValues) {
  const Outcome run =
      run_sim("technique STAT\ntasks 100\nworkers 4\nworkload constant:1.0\nh 0.5\n");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(row_of(run.output, "makespan [s]"), (Row{"makespan [s]", "25.0000"}))
      << run.output;  // 100 x 1 s on 4 workers
  EXPECT_EQ(row_of(run.output, "technique"), (Row{"technique", "STAT"})) << run.output;
  EXPECT_EQ(row_of(run.output, "speedup").size(), 2u) << run.output;
  // The Tzen-Ni degrees are not record fields, so dls_sim has none.
  EXPECT_EQ(run.output.find("degree"), std::string::npos) << run.output;
}

TEST(DlsSim, DeterministicAcrossRuns) {
  const Outcome a = run_sim(kValid);
  ASSERT_EQ(a.exit_code, 0) << a.output;
  EXPECT_EQ(run_sim(kValid).output, a.output);
}

TEST(DlsSim, ReplicatedRunRendersSummaryStatistics) {
  const std::string base =
      "technique FAC2\ntasks 256\nworkers 4\nworkload exponential:1.0\nh 0.5\nseed 5\n"
      "replicas 8\n";
  const Outcome two = run_sim(base + "threads 2\n");
  ASSERT_EQ(two.exit_code, 0) << two.output;
  EXPECT_NE(two.output.find("8 replicas (seeds 5..12)"), std::string::npos) << two.output;
  EXPECT_EQ(row_of(two.output, "measured value"),
            (Row{"measured value", "mean", "stddev", "min", "max"}));
  EXPECT_EQ(row_of(two.output, "makespan [s]").size(), 5u) << two.output;

  // Deterministic regardless of thread count (threads only appear in
  // the input, not the rendered output).
  for (const std::string threads : {"1", "4"}) {
    const Outcome other = run_sim(base + "threads " + threads + "\n");
    EXPECT_EQ(other.exit_code, 0) << other.output;
    EXPECT_EQ(other.output, two.output) << "threads " << threads;
  }
}

TEST(DlsSim, UsageErrorsExitTwo) {
  const auto exit_code = [](const std::string& args) {
    const std::string command = std::string(DLS_SIM_BIN) + " " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  EXPECT_EQ(exit_code(""), 2);
  EXPECT_EQ(exit_code("dls_sim_no_such_file.txt"), 2);
  const Outcome backend = run_sim(kValid, "--backend nope");
  EXPECT_EQ(backend.exit_code, 2) << backend.output;
  EXPECT_NE(backend.output.find("unknown backend 'nope'"), std::string::npos) << backend.output;
  EXPECT_EQ(run_sim(kValid, "--backend").exit_code, 2);

  const Outcome grid = run_sim("technique SS\nsweep workers 2 4\ntasks 64\nworkload constant:1\n");
  EXPECT_EQ(grid.exit_code, 2) << grid.output;
  EXPECT_NE(grid.output.find("line 2"), std::string::npos) << grid.output;
  EXPECT_NE(grid.output.find("dls_sweep"), std::string::npos) << grid.output;
}

TEST(DlsSim, BadNumericValuesAreUsageErrors) {
  // Each of these once ran (NaN or negative results, FAC scheduling
  // every task as one chunk, a truncated thread count) or failed only
  // as a run error.  Each is now exit 2, naming its line.
  const std::string base = "technique FAC\ntasks 1000\nworkers 2\nworkload constant:1\n";
  for (const std::string line : {"h nan", "h -1", "mu nan", "failures nan,inf", "failures -5,inf",
                                 "threads 4294967297", "timesteps 0", "weights -1,1",
                                 "weights nan,1"}) {
    const Outcome run = run_sim(base + line + "\n");
    EXPECT_EQ(run.exit_code, 2) << line << "\n" << run.output;
    EXPECT_NE(run.output.find("line 5 ('" + line + "')"), std::string::npos) << run.output;
  }
}

TEST(DlsSim, BackendRejectionIsARunError) {
  // hagerup has no simulated-overhead mode: the spec parses, the run
  // fails.
  const Outcome run = run_sim(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1\noverhead simulated\n",
      "--backend hagerup");
  EXPECT_EQ(run.exit_code, 1) << run.output;
}

/// dls_sim on `spec` prints the numbers of the record dls_sweep writes
/// for the same input, at the digits of its table.
void expect_sim_matches_record(const std::string& spec, const std::string& args = "") {
  const Outcome sim = run_sim(spec, args);
  ASSERT_EQ(sim.exit_code, 0) << sim.output;
  const Outcome swept = run_on_stdin(DLS_SWEEP_BIN, spec, args + " --quiet");
  ASSERT_EQ(swept.exit_code, 0) << swept.output;
  const std::string record = swept.output.substr(0, swept.output.find('\n'));
  const bool replicas =
      sweep::record_experiment(record).value().find("replicas") != std::string::npos;
  const std::vector<std::string> stats =
      replicas ? std::vector<std::string>{"mean", "stddev", "min", "max"}
               : std::vector<std::string>{"mean"};
  const struct {
    const char* label;
    const char* summary;
    int digits;
  } rows[] = {{"makespan [s]", "makespan", 4},
              {"average wasted time [s]", "avg_wasted_time", 4},
              {"speedup", "speedup", 3},
              {"scheduling operations", "chunks", replicas ? 1 : 0}};
  for (const auto& row : rows) {
    Row expected{row.label};
    for (const std::string& stat : stats) {
      expected.push_back(
          support::fmt(sweep::record_summary_field(record, row.summary, stat).value(), row.digits));
    }
    EXPECT_EQ(row_of(sim.output, row.label), expected) << sim.output << record;
  }
}

TEST(DlsSim, NumbersEqualTheSweepRecord) {
  // The two CI smoke inputs (one single run, one batch of replicas),
  // then a null-network run on another backend.
  expect_sim_matches_record(
      "technique TSS\ntasks 10000\nworkers 8\nworkload constant:0.002\nh 1e-6\n"
      "overhead simulated\nlatency 2e-6\nbandwidth 1e8\n");
  expect_sim_matches_record(
      "technique BOLD\ntasks 8192\nworkers 64\nworkload exponential:1.0\nh 0.5\n"
      "rand48 true\nreplicas 20\nthreads 2\n");
  expect_sim_matches_record(
      "technique SS\ntasks 4096\nworkers 16\nworkload exponential:1\nh 0.5\n",
      "--backend hagerup");
}

}  // namespace
