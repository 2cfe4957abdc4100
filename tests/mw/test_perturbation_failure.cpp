// Interplay of piecewise speed perturbations (simx::SpeedProfile) and
// fail-stop failures: the regimes the robustness and resilience
// follow-up studies combine, and the corner the serve loop historically
// got wrong (a failure reclaiming the only outstanding chunk while all
// survivors were parked used to deadlock the master).

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;
constexpr double kNever = std::numeric_limits<double>::infinity();

mw::Config base_config(Kind kind, std::size_t workers, std::size_t tasks) {
  mw::Config cfg;
  cfg.technique = kind;
  cfg.workers = workers;
  cfg.tasks = tasks;
  cfg.workload = workload::constant(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 0.0;
  cfg.record_chunk_log = true;
  return cfg;
}

std::size_t completed_tasks(const mw::RunResult& r) {
  std::size_t completed = 0;
  for (const mw::WorkerStats& w : r.workers) completed += w.tasks;
  return completed;
}

TEST(PerturbationFailure, FailStopInsideZeroSpeedSegment) {
  // Worker 1 stops computing at t = 10 (zero-speed segment) and its
  // fail-stop time t = 20 lands inside that stopped window: the chunk
  // it holds can never finish, so the failure announcement -- not the
  // chunk completion -- must release its tasks back to the pool.
  mw::Config cfg = base_config(Kind::kGSS, 4, 200);
  cfg.worker_speed_profiles.assign(4, simx::SpeedProfile{{0.0}, {cfg.host_speed}});
  cfg.worker_speed_profiles[1] = simx::SpeedProfile{{0.0, 10.0}, {cfg.host_speed, 0.0}};
  cfg.worker_failure_times = {kNever, 20.0, kNever, kNever};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_TRUE(r.workers[1].failed);
  EXPECT_GT(r.tasks_reclaimed, 0u);
  EXPECT_EQ(completed_tasks(r), 200u);
  // The dead worker burned until its failure instant, not longer.
  EXPECT_LE(r.workers[1].compute_time, 20.0 + 1e-9);
}

TEST(PerturbationFailure, FailStopWhileEveryWorkerIsStopped) {
  // All workers share a dead window [15, 40); worker 2 fails at t = 25,
  // inside the window.  The survivors must pick the lost chunk up once
  // their speed comes back.
  mw::Config cfg = base_config(Kind::kFAC2, 4, 300);
  const simx::SpeedProfile windowed{{0.0, 15.0, 40.0}, {cfg.host_speed, 0.0, cfg.host_speed}};
  cfg.worker_speed_profiles.assign(4, windowed);
  cfg.worker_failure_times = {kNever, kNever, 25.0, kNever};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_TRUE(r.workers[2].failed);
  EXPECT_EQ(completed_tasks(r), 300u);
  // Nothing computes inside the window, so the 300 x 1 s of work plus
  // the stopped 25 s lower-bound the makespan.
  EXPECT_GE(r.makespan, 40.0);
}

TEST(PerturbationFailure, AllWorkersStoppedWindowOnlyDelaysCompletion) {
  // The same global stop without failures: completion is delayed by at
  // least the window, never lost.
  mw::Config cfg = base_config(Kind::kTSS, 4, 100);
  const simx::SpeedProfile windowed{{0.0, 5.0, 30.0}, {cfg.host_speed, 0.0, cfg.host_speed}};
  cfg.worker_speed_profiles.assign(4, windowed);
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_EQ(completed_tasks(r), 100u);
  EXPECT_EQ(r.tasks_reclaimed, 0u);
  const double stop_seconds = 25.0;
  EXPECT_GE(r.makespan, 100.0 / 4.0);               // perfect-sharing bound
  EXPECT_GE(r.makespan, 5.0 + stop_seconds);        // the window really stalled the run
  mw::Config unperturbed = base_config(Kind::kTSS, 4, 100);
  const double baseline = mw::run_simulation(unperturbed).makespan;
  EXPECT_NEAR(r.makespan, baseline + stop_seconds, 1e-6);
}

TEST(PerturbationFailure, ReclaimWithAllSurvivorsParkedDoesNotDeadlock) {
  // Regression (found by dls_check, seed 11, scenario 340): with TSS on
  // 7 tasks over 4 workers, the last outstanding chunk belongs to the
  // failing worker while every survivor is parked on remaining() == 0.
  // The reclaim must wake the parked workers or the step never ends.
  mw::Config cfg = base_config(Kind::kTSS, 4, 7);
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.seed = 500499505;
  cfg.worker_failure_times = {kNever, kNever, kNever, 2.470470664551539};
  const mw::RunResult r = mw::run_simulation(cfg);  // used to deadlock
  EXPECT_EQ(completed_tasks(r), 7u);

  // The same shape, deterministic: one worker holds the only remaining
  // chunk and dies mid-execution.
  mw::Config stat = base_config(Kind::kStatic, 2, 20);
  stat.worker_failure_times = {kNever, 5.0};
  const mw::RunResult rs = mw::run_simulation(stat);
  EXPECT_EQ(completed_tasks(rs), 20u);
  EXPECT_EQ(rs.tasks_reclaimed, 10u);
}

TEST(PerturbationFailure, FailuresAcrossTimestepsStayConserved) {
  // A worker lost in step 0 stays lost; later steps run on the
  // survivors and every step still completes n tasks.
  mw::Config cfg = base_config(Kind::kFAC2, 4, 120);
  cfg.timesteps = 3;
  cfg.worker_failure_times = {kNever, 12.0, kNever, kNever};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_TRUE(r.workers[1].failed);
  EXPECT_EQ(completed_tasks(r), 360u);
  std::size_t served = 0;
  for (const mw::ChunkLogEntry& chunk : r.chunk_log) served += chunk.size;
  EXPECT_EQ(served, 360u + r.tasks_reclaimed);
}

}  // namespace
