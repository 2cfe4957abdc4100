// Heterogeneous-platform behaviour: the WF/AWF/AF extension features
// (paper Section II: "For load balanced execution on heterogeneous
// systems, weighted factoring (WF) has been developed...").

#include <gtest/gtest.h>

#include "exec/backend.hpp"
#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

mw::Config hetero_config(Kind kind, std::size_t tasks = 4096) {
  mw::Config cfg;
  cfg.technique = kind;
  cfg.workers = 4;
  cfg.tasks = tasks;
  cfg.workload = workload::constant(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 0.0;
  cfg.params.h = 0.01;
  // Two fast PEs, two at half speed.
  cfg.worker_speed_factors = {1.0, 1.0, 0.5, 0.5};
  return cfg;
}

double speedup(const mw::Config& cfg) { return exec::make_backend("mw")->measure(cfg).speedup; }

TEST(Heterogeneous, StaticChunkingSuffersOnMixedSpeeds) {
  // Equal blocks, half-speed stragglers: makespan doubles vs ideal.
  // Ideal speedup on this platform is 1+1+0.5+0.5 = 3.
  EXPECT_LT(speedup(hetero_config(Kind::kStatic)), 2.2);
}

TEST(Heterogeneous, WeightedFactoringUsesKnownSpeeds) {
  mw::Config cfg = hetero_config(Kind::kWF);
  cfg.params.weights = {1.0, 1.0, 0.5, 0.5};
  const mw::RunResult r = mw::run_simulation(cfg);
  // Close to the platform's ideal speedup of 3.
  EXPECT_GT(speedup(cfg), 2.7);
  // Fast PEs got roughly twice the work of slow PEs.
  const double fast = static_cast<double>(r.workers[0].tasks + r.workers[1].tasks);
  const double slow = static_cast<double>(r.workers[2].tasks + r.workers[3].tasks);
  EXPECT_NEAR(fast / slow, 2.0, 0.3);
}

TEST(Heterogeneous, SelfSchedulingBalancesWithoutKnowledge) {
  EXPECT_GT(speedup(hetero_config(Kind::kSS)), 2.8);  // SS auto-balances (at high overhead cost)
}

TEST(Heterogeneous, AwfCLearnsSpeedsWithoutBeingTold) {
  const mw::Config cfg = hetero_config(Kind::kAWFC, 16384);
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_GT(speedup(cfg), 2.6);
  const double fast = static_cast<double>(r.workers[0].tasks + r.workers[1].tasks);
  const double slow = static_cast<double>(r.workers[2].tasks + r.workers[3].tasks);
  EXPECT_NEAR(fast / slow, 2.0, 0.4);
}

TEST(Heterogeneous, AfLearnsPerPeRates) {
  const mw::Config cfg = hetero_config(Kind::kAF, 16384);
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_GT(speedup(cfg), 2.5);
  EXPECT_GT(r.workers[0].tasks, r.workers[2].tasks);
}

TEST(Heterogeneous, AwfRecoversFromWrongWeightsOverTimesteps) {
  // WF trusts its static weights forever; give it badly inverted ones
  // (slow PEs weighted 7x the fast ones) on a coarse-grained step (64
  // tasks, 4 PEs) where each step synchronizes before the next.  The
  // slow PEs' oversized first chunks then bind every step's makespan.
  // AWF starts from the same ignorance (equal weights) but re-weights
  // at each step boundary, so over several steps it must clearly win.
  // (With fine granularity the factoring tail self-heals and the two
  // become indistinguishable -- that robustness is tested above.)
  mw::Config awf = hetero_config(Kind::kAWF, 64);
  awf.timesteps = 8;

  mw::Config wf_wrong = hetero_config(Kind::kWF, 64);
  wf_wrong.timesteps = 8;
  wf_wrong.params.weights = {0.25, 0.25, 1.75, 1.75};  // badly inverted

  EXPECT_GT(speedup(awf), speedup(wf_wrong) * 1.1);
  // And AWF's learned distribution tracks the true 2:1 speed ratio.
  const mw::RunResult r = mw::run_simulation(awf);
  const double fast = static_cast<double>(r.workers[0].tasks + r.workers[1].tasks);
  const double slow = static_cast<double>(r.workers[2].tasks + r.workers[3].tasks);
  EXPECT_GT(fast / slow, 1.3);
}

TEST(Heterogeneous, SpeedProfilesPerturbWorkersMidRun) {
  // Worker 0 halts between t = 10 and t = 30 (a perturbation window);
  // an adaptive technique keeps the run finishing, just later.
  mw::Config cfg;
  cfg.technique = Kind::kFAC2;
  cfg.workers = 2;
  cfg.tasks = 100;
  cfg.workload = workload::constant(1.0);
  cfg.worker_speed_profiles = {
      simx::SpeedProfile{{0.0, 10.0, 30.0}, {1e9, 0.0, 1e9}},
      simx::SpeedProfile{{0.0}, {1e9}},
  };
  const mw::RunResult r = mw::run_simulation(cfg);
  std::size_t total = 0;
  for (const mw::WorkerStats& w : r.workers) total += w.tasks;
  EXPECT_EQ(total, 100u);
  // Without the outage the balanced makespan would be ~50 s; the
  // 20 s outage pushes it beyond that but the run still completes.
  EXPECT_GT(r.makespan, 50.0);
  EXPECT_LT(r.makespan, 100.0);
  // The healthy worker picked up more of the load.
  EXPECT_GT(r.workers[1].tasks, r.workers[0].tasks);
}

TEST(Heterogeneous, ProfileValidationErrors) {
  mw::Config cfg;
  cfg.technique = Kind::kSS;
  cfg.workers = 2;
  cfg.tasks = 10;
  cfg.workload = workload::constant(1.0);
  cfg.worker_speed_profiles = {simx::SpeedProfile{{0.0}, {1e9}}};  // wrong size
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
  cfg.worker_speed_profiles = {simx::SpeedProfile{{1.0}, {1e9}},  // bad first time point
                               simx::SpeedProfile{{0.0}, {1e9}}};
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
}

TEST(Heterogeneous, FactorsScaleExecutionTimes) {
  // One worker at quarter speed executing everything: makespan x4.
  mw::Config cfg;
  cfg.technique = Kind::kStatic;
  cfg.workers = 1;
  cfg.tasks = 16;
  cfg.workload = workload::constant(1.0);
  cfg.worker_speed_factors = {0.25};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_NEAR(r.makespan, 64.0, 1e-6);
}

}  // namespace
