#include <gtest/gtest.h>

#include <numeric>

#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

mw::Config base_config(Kind kind, std::size_t workers, std::size_t tasks) {
  mw::Config cfg;
  cfg.technique = kind;
  cfg.workers = workers;
  cfg.tasks = tasks;
  cfg.workload = workload::constant(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 0.0;
  cfg.params.h = 0.5;
  return cfg;
}

TEST(Simulation, StatConstantWorkloadIsPerfectlyBalanced) {
  const mw::Config cfg = base_config(Kind::kStatic, 4, 100);
  const mw::RunResult r = mw::run_simulation(cfg);
  // 25 tasks of 1 s per worker, null network: makespan ~= 25 s.
  EXPECT_NEAR(r.makespan, 25.0, 1e-6);
  EXPECT_EQ(r.chunk_count, 4u);
  for (const mw::WorkerStats& w : r.workers) {
    EXPECT_EQ(w.tasks, 25u);
    EXPECT_EQ(w.chunks, 1u);
    EXPECT_NEAR(w.compute_time, 25.0, 1e-6);
    EXPECT_NEAR(w.wait_time, 0.0, 1e-6);
  }
}

TEST(Simulation, TaskConservationAcrossWorkers) {
  for (Kind kind : dls::bold_publication_kinds()) {
    mw::Config cfg = base_config(kind, 8, 1024);
    cfg.workload = workload::exponential(1.0);
    cfg.params.sigma = 1.0;
    const mw::RunResult r = mw::run_simulation(cfg);
    std::size_t total = 0;
    std::size_t chunks = 0;
    for (const mw::WorkerStats& w : r.workers) {
      total += w.tasks;
      chunks += w.chunks;
    }
    EXPECT_EQ(total, 1024u) << dls::to_string(kind);
    EXPECT_EQ(chunks, r.chunk_count) << dls::to_string(kind);
  }
}

TEST(Simulation, SelfSchedulingIssuesOneChunkPerTask) {
  const mw::RunResult r = mw::run_simulation(base_config(Kind::kSS, 4, 64));
  EXPECT_EQ(r.chunk_count, 64u);
}

TEST(Simulation, DeterministicForSameSeed) {
  mw::Config cfg = base_config(Kind::kFAC2, 8, 2048);
  cfg.workload = workload::exponential(1.0);
  cfg.seed = 1234;
  const mw::RunResult a = mw::run_simulation(cfg);
  const mw::RunResult b = mw::run_simulation(cfg);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.chunk_count, b.chunk_count);
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.workers[i].compute_time, b.workers[i].compute_time);
  }
}

TEST(Simulation, DifferentSeedsChangeStochasticWorkloads) {
  mw::Config cfg = base_config(Kind::kFAC2, 8, 2048);
  cfg.workload = workload::exponential(1.0);
  cfg.seed = 1;
  const double m1 = mw::run_simulation(cfg).makespan;
  cfg.seed = 2;
  const double m2 = mw::run_simulation(cfg).makespan;
  EXPECT_NE(m1, m2);
}

TEST(Simulation, TotalNominalWorkMatchesWorkload) {
  const mw::RunResult r = mw::run_simulation(base_config(Kind::kGSS, 4, 100));
  EXPECT_NEAR(r.total_nominal_work, 100.0, 1e-9);
}

TEST(Simulation, MoreWorkersThanTasksStillTerminates) {
  const mw::Config cfg = base_config(Kind::kSS, 16, 5);
  const mw::RunResult r = mw::run_simulation(cfg);
  std::size_t total = 0;
  for (const mw::WorkerStats& w : r.workers) total += w.tasks;
  EXPECT_EQ(total, 5u);
  EXPECT_NEAR(r.makespan, 1.0, 1e-6);  // five tasks in parallel
}

TEST(Simulation, SingleWorkerExecutesEverything) {
  const mw::RunResult r = mw::run_simulation(base_config(Kind::kFAC2, 1, 32));
  EXPECT_EQ(r.workers[0].tasks, 32u);
  EXPECT_NEAR(r.makespan, 32.0, 1e-6);
}

TEST(Simulation, SimulatedOverheadDelaysWorkers) {
  mw::Config analytic = base_config(Kind::kSS, 2, 100);
  mw::Config simulated = base_config(Kind::kSS, 2, 100);
  simulated.overhead_mode = mw::OverheadMode::kSimulated;
  const double m_analytic = mw::run_simulation(analytic).makespan;
  const double m_simulated = mw::run_simulation(simulated).makespan;
  // Analytic: overhead never enters the timeline (makespan ~ 50 s).
  // Simulated: the master spends h = 0.5 per chunk; with two workers
  // pipelining against the master, each worker's cycle grows from 1.0
  // to ~1.5 s -> makespan ~75 s.
  EXPECT_GT(m_simulated, m_analytic + 20.0);
  EXPECT_NEAR(m_simulated, 75.0, 3.0);
}

TEST(Simulation, SimulatedOverheadOccupiesMaster) {
  mw::Config cfg = base_config(Kind::kSS, 2, 100);
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_NEAR(r.master_busy_time, 50.0, 1e-6);  // 100 chunks x 0.5 s
}

TEST(Simulation, ChunkLogRecordsWhenEnabled) {
  mw::Config cfg = base_config(Kind::kTSS, 4, 1000);
  cfg.record_chunk_log = true;
  const mw::RunResult r = mw::run_simulation(cfg);
  ASSERT_EQ(r.chunk_log.size(), r.chunk_count);
  std::size_t sum = 0;
  double last_time = 0.0;
  for (const mw::ChunkLogEntry& e : r.chunk_log) {
    sum += e.size;
    EXPECT_GE(e.issued_at, last_time);
    last_time = e.issued_at;
    EXPECT_LT(e.pe, 4u);
  }
  EXPECT_EQ(sum, 1000u);
  // First chunk starts at task 0; ranges are contiguous.
  EXPECT_EQ(r.chunk_log.front().first, 0u);
}

TEST(Simulation, ChunkLogEmptyWhenDisabled) {
  const mw::RunResult r = mw::run_simulation(base_config(Kind::kTSS, 4, 1000));
  EXPECT_TRUE(r.chunk_log.empty());
}

TEST(Simulation, RealisticNetworkSlowsSelfScheduling) {
  mw::Config fast = base_config(Kind::kSS, 8, 512);
  mw::Config slow = base_config(Kind::kSS, 8, 512);
  slow.latency = 0.01;  // 10 ms per message
  const double m_fast = mw::run_simulation(fast).makespan;
  const double m_slow = mw::run_simulation(slow).makespan;
  EXPECT_GT(m_slow, m_fast);
}

TEST(Simulation, ValidatesConfig) {
  mw::Config cfg = base_config(Kind::kSS, 2, 10);
  cfg.workers = 0;
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
  cfg = base_config(Kind::kSS, 2, 10);
  cfg.tasks = 0;
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
  cfg = base_config(Kind::kSS, 2, 10);
  cfg.workload = nullptr;
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
  cfg = base_config(Kind::kSS, 2, 10);
  cfg.worker_speed_factors = {1.0};  // wrong size
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
}

TEST(Simulation, Rand48WorkloadOptionIsDeterministic) {
  mw::Config cfg = base_config(Kind::kFAC2, 4, 512);
  cfg.workload = workload::exponential(1.0);
  cfg.use_rand48 = true;
  const double m1 = mw::run_simulation(cfg).makespan;
  const double m2 = mw::run_simulation(cfg).makespan;
  EXPECT_DOUBLE_EQ(m1, m2);
  cfg.use_rand48 = false;
  EXPECT_NE(mw::run_simulation(cfg).makespan, m1);  // different generator family
}

TEST(Simulation, TimesteppingSchedulesEveryStep) {
  mw::Config cfg = base_config(Kind::kAWF, 4, 200);
  cfg.timesteps = 3;
  const mw::RunResult r = mw::run_simulation(cfg);
  std::size_t total = 0;
  for (const mw::WorkerStats& w : r.workers) total += w.tasks;
  EXPECT_EQ(total, 600u);
  EXPECT_NEAR(r.total_nominal_work, 600.0, 1e-9);
  EXPECT_NEAR(r.makespan, 150.0, 1e-5);  // 3 steps x 50 s
}

TEST(Simulation, TimesteppingWorksForNonAdaptiveTechniques) {
  mw::Config cfg = base_config(Kind::kTSS, 4, 100);
  cfg.timesteps = 2;
  const mw::RunResult r = mw::run_simulation(cfg);
  std::size_t total = 0;
  for (const mw::WorkerStats& w : r.workers) total += w.tasks;
  EXPECT_EQ(total, 200u);
}

}  // namespace
