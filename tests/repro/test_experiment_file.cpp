#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "mw/simulation.hpp"
#include "repro/experiment_file.hpp"
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
  const mw::Config cfg = repro::parse_experiment(kValid);
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
  const mw::Config cfg = repro::parse_experiment(
      "technique BOLD\ntasks 100\nworkers 2\nworkload exponential:2.0\nmu 5\nsigma 0.5\n");
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
  const mw::Config cfg = repro::parse_experiment(text);
  EXPECT_EQ(cfg.timesteps, 2u);
  EXPECT_EQ(cfg.overhead_mode, mw::OverheadMode::kSimulated);
  EXPECT_DOUBLE_EQ(cfg.latency, 1e-5);
  EXPECT_EQ(cfg.params.gss_min_chunk, 5u);
  EXPECT_TRUE(cfg.use_rand48);
}

TEST(ExperimentFile, UnknownKeyIsAnErrorWithLineNumber) {
  try {
    (void)repro::parse_experiment("technique SS\nbanana 1\n");
    FAIL() << "expected error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }
}

TEST(ExperimentFile, RejectsMalformedInput) {
  EXPECT_THROW((void)repro::parse_experiment("technique\n"), std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment("technique SS extra\n"), std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment("technique NOPE\ntasks 1\nworkers 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment("tasks -5\n"), std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment("overhead maybe\n"), std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment("rand48 maybe\n"), std::invalid_argument);
}

TEST(ExperimentFile, RequiresMandatoryKeys) {
  EXPECT_THROW((void)repro::parse_experiment("technique SS\nworkers 2\nworkload constant:1\n"),
               std::invalid_argument);  // no tasks
  EXPECT_THROW((void)repro::parse_experiment("technique SS\ntasks 10\nworkload constant:1\n"),
               std::invalid_argument);  // no workers
  EXPECT_THROW((void)repro::parse_experiment("technique SS\ntasks 10\nworkers 2\n"),
               std::invalid_argument);  // no workload
}

TEST(ExperimentFile, RunProducesMeasuredValues) {
  std::ostringstream out;
  repro::run_experiment_file(
      "technique STAT\ntasks 100\nworkers 4\nworkload constant:1.0\nh 0.5\n", out);
  const std::string text = out.str();
  EXPECT_NE(text.find("makespan"), std::string::npos);
  EXPECT_NE(text.find("25.0000"), std::string::npos);  // 100 x 1 s on 4 workers
  EXPECT_NE(text.find("speedup"), std::string::npos);
  EXPECT_NE(text.find("STAT"), std::string::npos);
}

TEST(ExperimentFile, DeterministicAcrossRuns) {
  std::ostringstream a, b;
  repro::run_experiment_file(kValid, a);
  repro::run_experiment_file(kValid, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ExperimentFile, ParsesReplicasAndThreads) {
  const repro::ExperimentSpec spec = repro::parse_experiment_spec(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nreplicas 20\nthreads 2\n");
  EXPECT_EQ(spec.replicas, 20u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_THROW((void)repro::parse_experiment_spec(
                   "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nreplicas 0\n"),
               std::invalid_argument);
  // Default stays a single run.
  EXPECT_EQ(repro::parse_experiment_spec(kValid).replicas, 1u);
}

TEST(ExperimentFile, ParsesSeedStride) {
  const repro::ExperimentSpec spec = repro::parse_experiment_spec(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nreplicas 3\nseed_stride 104729\n");
  EXPECT_EQ(spec.seed_stride, 104729u);
  EXPECT_EQ(repro::parse_experiment_spec(kValid).seed_stride, 1u);  // default
  EXPECT_THROW((void)repro::parse_experiment_spec(
                   "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nseed_stride 0\n"),
               std::invalid_argument);
  // Round-trips through the serializer (omitted at its default of 1).
  const std::string text = repro::serialize_experiment_spec(spec);
  EXPECT_NE(text.find("seed_stride 104729"), std::string::npos) << text;
  EXPECT_EQ(repro::parse_experiment_spec(text).seed_stride, 104729u);
  const std::string no_stride =
      repro::serialize_experiment_spec(repro::parse_experiment_spec(kValid));
  EXPECT_EQ(no_stride.find("seed_stride"), std::string::npos) << no_stride;
}

TEST(ExperimentFile, Full64BitSeedsRoundTripExactly) {
  // Grid records carry splitmix64-derived seeds that use all 64 bits; a
  // double-path parse would silently round them and the record's
  // replayable `experiment` echo would replay a *different* run.
  const repro::ExperimentSpec spec = repro::parse_experiment_spec(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1.0\nseed 13679457532755275413\n");
  EXPECT_EQ(spec.config.seed, 13679457532755275413ULL);
  const std::string text = repro::serialize_experiment_spec(spec);
  EXPECT_EQ(repro::parse_experiment_spec(text).config.seed, 13679457532755275413ULL);
  // Scientific notation still works where it is exact.
  EXPECT_EQ(repro::parse_experiment("technique SS\ntasks 64\nworkers 2\n"
                                    "workload constant:1.0\nseed 1e6\n")
                .seed,
            1000000u);
}

TEST(ExperimentFile, OutOfRangeNumberIsALineNumberedError) {
  // std::stod throws out_of_range for "1e999"; the wrapper must turn
  // that into the usual line-numbered parse error, not propagate a
  // bare out_of_range (or worse, clamp silently).
  try {
    (void)repro::parse_experiment("technique SS\ntasks 64\nworkers 2\n"
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
    (void)repro::parse_experiment("technique SS\nsweep workers 2 4 8\n");
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
  const mw::Config cfg = repro::parse_experiment(text);
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
  EXPECT_THROW((void)repro::parse_experiment(std::string(base) + "speeds 1,2\n"),
               std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment(std::string(base) + "failures 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment(std::string(base) + "weights 1,2,3,4\n"),
               std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment(std::string(base) + "profile7 0:1e9\n"),
               std::invalid_argument);
  EXPECT_THROW((void)repro::parse_experiment(std::string(base) + "profile0 5:1e9\n"),
               std::invalid_argument);  // profile must start at t = 0
  EXPECT_THROW((void)repro::parse_experiment(std::string(base) + "profileX 0:1e9\n"),
               std::invalid_argument);
  // Non-finite or non-positive network and speed values are rejected
  // on their own line, not left to produce a NaN makespan.
  for (const char* line :
       {"latency nan\n", "latency inf\n", "latency -1\n", "bandwidth nan\n", "bandwidth 0\n",
        "bandwidth -1\n", "host_speed inf\n", "host_speed nan\n", "speeds 1,inf,1\n",
        "speeds 1,nan,1\n", "speeds 1,0,1\n", "speeds 1,-2,1\n"}) {
    try {
      (void)repro::parse_experiment(std::string(base) + line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos) << e.what();
    }
  }
  // An infinite bandwidth is legal: transfers then cost only latency.
  EXPECT_TRUE(std::isinf(repro::parse_experiment(std::string(base) + "bandwidth inf\n").bandwidth));
}

TEST(ExperimentFile, ParseErrorsNameTheOffendingLine) {
  auto message_of = [](const char* text) {
    try {
      (void)repro::parse_experiment(text);
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
    const repro::ExperimentSpec once = repro::parse_experiment_spec(text);
    const std::string serialized = repro::serialize_experiment_spec(once);
    repro::ExperimentSpec twice;
    ASSERT_NO_THROW(twice = repro::parse_experiment_spec(serialized)) << serialized;
    EXPECT_EQ(repro::serialize_experiment_spec(twice), serialized) << text;

    // The round-tripped spec runs to the identical result.
    const mw::RunResult a = mw::run_simulation(once.config);
    const mw::RunResult b = mw::run_simulation(twice.config);
    EXPECT_EQ(a.makespan, b.makespan) << text;
    EXPECT_EQ(a.chunk_count, b.chunk_count) << text;
  }
}

TEST(ExperimentFile, SerializeOmitsDefaults) {
  const repro::ExperimentSpec spec = repro::parse_experiment_spec(
      "technique SS\ntasks 10\nworkers 2\nworkload constant:1\n");
  const std::string text = repro::serialize_experiment_spec(spec);
  EXPECT_EQ(text.find("latency"), std::string::npos);
  EXPECT_EQ(text.find("timesteps"), std::string::npos);
  EXPECT_EQ(text.find("overhead"), std::string::npos);
  EXPECT_EQ(text.find("h "), std::string::npos);
  EXPECT_NE(text.find("technique SS"), std::string::npos);
  EXPECT_NE(text.find("seed 42"), std::string::npos);
}

TEST(ExperimentFile, SerializeRejectsInexpressibleSpecs) {
  repro::ExperimentSpec spec;
  EXPECT_THROW((void)repro::serialize_experiment_spec(spec), std::invalid_argument);
  spec = repro::parse_experiment_spec("technique SS\ntasks 10\nworkers 2\nworkload constant:1\n");
  spec.config.workload = workload::trace({1.0, 2.0});
  EXPECT_THROW((void)repro::serialize_experiment_spec(spec), std::invalid_argument);
}

TEST(ExperimentFile, ReplicatedRunRendersSummaryStatistics) {
  std::ostringstream out;
  repro::run_experiment_file(
      "technique FAC2\ntasks 256\nworkers 4\nworkload exponential:1.0\nh 0.5\nseed 5\n"
      "replicas 8\nthreads 2\n",
      out);
  const std::string text = out.str();
  EXPECT_NE(text.find("8 replicas"), std::string::npos);
  EXPECT_NE(text.find("mean"), std::string::npos);
  EXPECT_NE(text.find("stddev"), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);

  // Deterministic regardless of thread count (threads only appear in
  // the input, not the rendered output).
  std::ostringstream single;
  repro::run_experiment_file(
      "technique FAC2\ntasks 256\nworkers 4\nworkload exponential:1.0\nh 0.5\nseed 5\n"
      "replicas 8\nthreads 1\n",
      single);
  EXPECT_EQ(single.str(), text);
}

}  // namespace
