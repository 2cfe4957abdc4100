// The master-worker event loop's time semantics, observed through
// mw::run_simulation: work runs at the host's speed, every actor's
// accounted time adds up to its lifetime, same-time events fire in
// worker-index order, and an actor's error reaches the caller.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "mw/simulation.hpp"
#include "simx/speed_profile.hpp"
#include "workload/task_times.hpp"

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// SS over a null network (zero latency, infinite bandwidth), so every
/// message is free and the only virtual time is work and overhead.
mw::Config null_network(std::size_t workers, std::size_t tasks,
                        std::shared_ptr<const workload::TaskTimeGenerator> times) {
  mw::Config cfg;
  cfg.technique = dls::Kind::kSS;
  cfg.workers = workers;
  cfg.tasks = tasks;
  cfg.workload = std::move(times);
  cfg.latency = 0.0;
  cfg.bandwidth = kInf;
  cfg.record_chunk_log = true;
  return cfg;
}

TEST(EventLoop, ExecuteUsesHostSpeed) {
  // One task of 3 nominal seconds on a worker at half the reference
  // speed: 6 s of computing, nothing else.
  mw::Config cfg = null_network(1, 1, workload::constant(3.0));
  cfg.worker_speed_factors = {0.5};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.workers[0].compute_time, 6.0);
  EXPECT_DOUBLE_EQ(r.workers[0].wait_time, 0.0);
  EXPECT_DOUBLE_EQ(r.workers[0].comm_time, 0.0);
}

TEST(EventLoop, ProfiledHostSlowsExecution) {
  mw::Config cfg = null_network(1, 1, workload::constant(2.0));
  cfg.worker_speed_profiles = {simx::SpeedProfile{{0.0, 1.0}, {1e9, 5e8}}};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_DOUBLE_EQ(r.workers[0].compute_time, 3.0);  // 1 s full speed + 2 s half speed
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(EventLoop, NullNetworkAndNoOverheadCostNothing) {
  const mw::RunResult r = mw::run_simulation(null_network(2, 4, workload::constant(1.0)));
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_DOUBLE_EQ(r.master_busy_time, 0.0);
  for (const mw::WorkerStats& w : r.workers) {
    EXPECT_DOUBLE_EQ(w.compute_time, 2.0);
    EXPECT_DOUBLE_EQ(w.comm_time, 0.0);
    EXPECT_DOUBLE_EQ(w.wait_time, 0.0);
  }
}

TEST(EventLoop, SimultaneousEventsFireInWorkerOrder) {
  // Constant task times: every round's requests arrive at one instant,
  // and the (time, seq) tie-break serves them in worker-index order.
  const mw::RunResult r = mw::run_simulation(null_network(4, 16, workload::constant(1.0)));
  ASSERT_EQ(r.chunk_log.size(), 16u);
  for (std::size_t i = 0; i < r.chunk_log.size(); ++i) {
    EXPECT_EQ(r.chunk_log[i].pe, i % 4) << "chunk " << i;
    EXPECT_DOUBLE_EQ(r.chunk_log[i].issued_at, static_cast<double>(i / 4));
  }
}

TEST(EventLoop, AccountedTimesSumToLifetime) {
  // Conservation of virtual time: computing + communicating + waiting
  // (which includes the idle tail after finalization) is the makespan
  // for every worker.
  mw::Config cfg;
  cfg.technique = dls::Kind::kFAC2;
  cfg.workers = 8;
  cfg.tasks = 2048;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.01;
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.latency = 1e-3;
  cfg.bandwidth = 1e6;
  const mw::RunResult r = mw::run_simulation(cfg);
  for (const mw::WorkerStats& w : r.workers) {
    EXPECT_GT(w.compute_time, 0.0);
    EXPECT_GT(w.comm_time, 0.0);
    EXPECT_NEAR(w.compute_time + w.comm_time + w.wait_time, r.makespan, 1e-9 * r.makespan);
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_identical(const mw::RunResult& a, const mw::RunResult& b) {
  EXPECT_TRUE(same_bits(a.makespan, b.makespan));
  EXPECT_TRUE(same_bits(a.master_busy_time, b.master_busy_time));
  EXPECT_EQ(a.chunk_count, b.chunk_count);
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    EXPECT_TRUE(same_bits(a.workers[i].compute_time, b.workers[i].compute_time));
    EXPECT_TRUE(same_bits(a.workers[i].wait_time, b.workers[i].wait_time));
    EXPECT_TRUE(same_bits(a.workers[i].comm_time, b.workers[i].comm_time));
    EXPECT_EQ(a.workers[i].tasks, b.workers[i].tasks);
  }
}

TEST(EventLoop, DeterministicAcrossIdenticalRuns) {
  mw::Config cfg;
  cfg.technique = dls::Kind::kGSS;
  cfg.workers = 10;
  cfg.tasks = 1000;
  cfg.workload = workload::exponential(1.0);
  cfg.latency = 2e-6;
  cfg.bandwidth = 1e8;
  cfg.seed = 5;
  const mw::RunResult first = mw::run_simulation(cfg);
  expect_identical(first, mw::run_simulation(cfg));
  mw::RunContext context;
  (void)mw::run_simulation(cfg, context);
  expect_identical(first, mw::run_simulation(cfg, context));
}

TEST(EventLoop, ActorErrorPropagatesAndContextStaysUsable) {
  // Worker 1's host stops for good at t = 0.5 and it has no fail-stop
  // time, so its chunk can never finish: the run reports the error.
  mw::Config bad = null_network(2, 8, workload::constant(1.0));
  bad.worker_speed_profiles = {simx::SpeedProfile{{0.0}, {1e9}},
                               simx::SpeedProfile{{0.0, 0.5}, {1e9, 0.0}}};
  EXPECT_THROW((void)mw::run_simulation(bad), std::runtime_error);

  // A context that saw the throwing run still reproduces a fresh run.
  mw::RunContext context;
  EXPECT_THROW((void)mw::run_simulation(bad, context), std::runtime_error);
  const mw::Config good = null_network(2, 8, workload::exponential(1.0));
  expect_identical(mw::run_simulation(good), mw::run_simulation(good, context));
}

}  // namespace
