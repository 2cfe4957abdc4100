// Tests for the invariant catalog: clean runs pass, and injected
// violations (a flipped chunk bound, tampered totals, forged metrics)
// are caught and reported as replayable experiment files.

#include <gtest/gtest.h>

#include <limits>

#include "check/invariants.hpp"
#include "check/runner.hpp"
#include "exec/backend.hpp"
#include "sweep/experiment.hpp"
#include "workload/task_times.hpp"

namespace {

using check::Scenario;

Scenario simple_scenario(dls::Kind kind = dls::Kind::kFAC2) {
  Scenario s;
  s.config.technique = kind;
  s.config.tasks = 512;
  s.config.workers = 4;
  s.config.workload = workload::from_spec("exponential:1");
  s.config.params.mu = 1.0;
  s.config.params.sigma = 1.0;
  s.config.params.h = 0.5;
  s.config.latency = 0.0;
  s.config.bandwidth = std::numeric_limits<double>::infinity();
  s.config.record_chunk_log = true;
  check::classify(s);
  return s;
}

TEST(Invariants, CleanRunPassesAll) {
  const Scenario s = simple_scenario();
  const exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  const std::vector<check::Failure> failures = check::check_run(s, run);
  for (const check::Failure& f : failures) {
    ADD_FAILURE() << f.invariant << ": " << f.message;
  }
}

TEST(Invariants, CleanFailureRunPassesAll) {
  Scenario s = simple_scenario(dls::Kind::kGSS);
  s.config.worker_failure_times = {40.0, std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::infinity()};
  check::classify(s);
  const exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  EXPECT_GT(run.tasks_reclaimed, 0u);  // the scenario must actually lose work
  for (const check::Failure& f : check::check_run(s, run)) {
    ADD_FAILURE() << f.invariant << ": " << f.message;
  }
}

TEST(Invariants, FlippedChunkBoundIsCaught) {
  // The acceptance scenario: flip one chunk bound in the log and the
  // catalog must notice.
  const Scenario s = simple_scenario();
  exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  ASSERT_GT(run.chunk_log.size(), 4u);
  run.chunk_log[3].first += 1;
  run.range_log[3].first += 1;  // keep chunk and range logs consistent
  const std::vector<check::Failure> failures = check::check_run(s, run);
  ASSERT_FALSE(failures.empty());
  bool coverage_caught = false;
  for (const check::Failure& f : failures) {
    if (f.invariant == "coverage" || f.invariant == "work_seconds") coverage_caught = true;
  }
  EXPECT_TRUE(coverage_caught);
}

TEST(Invariants, OverlappingChunkIsCaught) {
  const Scenario s = simple_scenario();
  exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  ASSERT_GT(run.chunk_log.size(), 4u);
  // Duplicate chunk 2's range into chunk 3: tasks now served twice.
  run.chunk_log[3] = run.chunk_log[2];
  run.range_log[3] = run.range_log[2];
  run.range_log[3].chunk = 3;
  bool caught = false;
  for (const check::Failure& f : check::check_run(s, run)) {
    if (f.invariant == "coverage" || f.invariant == "conservation") caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Invariants, TamperedChunkSizeIsCaught) {
  const Scenario s = simple_scenario();
  exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  ASSERT_GT(run.chunk_log.size(), 2u);
  run.chunk_log[1].size += 1;  // ranges no longer sum to the chunk size
  bool caught = false;
  for (const check::Failure& f : check::check_run(s, run)) {
    if (f.invariant == "chunk_bounds") caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Invariants, TamperedWorkSecondsIsCaught) {
  const Scenario s = simple_scenario();
  exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  run.chunk_log[0].work_seconds *= 1.5;
  bool caught = false;
  for (const check::Failure& f : check::check_run(s, run)) {
    if (f.invariant == "work_seconds") caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Invariants, ImpossibleMakespanIsCaught) {
  const Scenario s = simple_scenario();
  exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  run.makespan /= 100.0;  // faster than perfect sharing: impossible
  bool caught = false;
  for (const check::Failure& f : check::check_run(s, run)) {
    if (f.invariant == "makespan_bounds") caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Invariants, ForgedMetricsAreCaught) {
  const Scenario s = simple_scenario();
  const auto caught = [&](const exec::BackendRun& run) {
    for (const check::Failure& f : check::check_run(s, run)) {
      if (f.invariant == "metrics_identity") return true;
    }
    return false;
  };
  for (const char* backend : {"mw", "hagerup"}) {
    const exec::BackendRun run = exec::make_backend(backend)->run(s.config);
    EXPECT_FALSE(caught(run)) << backend;
    exec::BackendRun forged = run;
    forged.measured.speedup *= 1.01;
    EXPECT_TRUE(caught(forged)) << backend;
    forged = run;
    forged.measured.avg_wasted_time *= 1.01;
    EXPECT_TRUE(caught(forged)) << backend;
  }
}

TEST(Invariants, LostWorkerTasksAreCaught) {
  const Scenario s = simple_scenario();
  exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  run.worker_stats[0].tasks -= 1;  // conservation of tasks broken
  bool caught = false;
  for (const check::Failure& f : check::check_run(s, run)) {
    if (f.invariant == "conservation") caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(Invariants, ViolationEmitsReplayableExperimentFile) {
  // End to end: an injected violation must come back as an experiment
  // file that parses and reproduces the scenario.
  const Scenario s = simple_scenario();
  const std::string text = check::to_experiment_text(s);
  const sweep::ExperimentSpec spec = sweep::parse_experiment_spec(text);
  EXPECT_EQ(spec.config.technique, s.config.technique);
  EXPECT_EQ(spec.config.tasks, s.config.tasks);
  EXPECT_EQ(spec.config.workers, s.config.workers);
  EXPECT_EQ(spec.config.seed, s.config.seed);
  // The replayed config reproduces the identical run.
  const exec::BackendRun original = exec::make_backend("mw")->run(s.config);
  Scenario replayed;
  replayed.config = spec.config;
  check::classify(replayed);
  const exec::BackendRun replay = exec::make_backend("mw")->run(replayed.config);
  EXPECT_EQ(original.makespan, replay.makespan);
  EXPECT_EQ(original.chunk_count, replay.chunk_count);
}

TEST(Minimizer, ShrinksToTheFailingCore) {
  // A synthetic defect that only needs tasks >= 32: the minimizer must
  // strip the incidental complexity (heterogeneity, failures, network,
  // workload randomness) and shrink the size to the threshold.
  Scenario s = check::generate_scenario(21, 0);
  s.config.tasks = 2048;
  s.config.workers = 8;
  s.config.worker_speed_factors.assign(8, 1.5);
  s.config.worker_failure_times.assign(8, std::numeric_limits<double>::infinity());
  s.config.worker_failure_times[3] = 100.0;
  s.config.params.weights.clear();
  s.config.timesteps = 2;
  check::classify(s);
  const Scenario minimized = check::minimize_scenario(
      s, [](const Scenario& candidate) { return candidate.config.tasks >= 32; }, 200);
  EXPECT_GE(minimized.config.tasks, 32u);
  EXPECT_LT(minimized.config.tasks, 64u);
  EXPECT_EQ(minimized.config.workers, 1u);
  EXPECT_EQ(minimized.config.timesteps, 1u);
  EXPECT_TRUE(minimized.config.worker_failure_times.empty());
  EXPECT_TRUE(minimized.config.worker_speed_factors.empty());
  EXPECT_EQ(minimized.config.workload->stddev(), 0.0);
}

TEST(Minimizer, KeepsTheOriginalWhenNothingShrinks) {
  const Scenario s = simple_scenario();
  const Scenario minimized = check::minimize_scenario(
      s, [](const Scenario&) { return false; }, 50);
  EXPECT_EQ(check::to_experiment_text(minimized), check::to_experiment_text(s));
}

}  // namespace
