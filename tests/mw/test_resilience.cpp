// Fail-stop resilience: workers die at configured times, the master
// reclaims their outstanding chunks and re-schedules them -- the
// scenario of the resilience study the paper cites as groundwork
// (Sukhija, Banicescu & Ciorba 2015).

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "mw/simulation.hpp"
#include "workload/random_source.hpp"
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
  cfg.params.h = 0.01;
  return cfg;
}

TEST(Resilience, AllTasksCompleteDespiteOneFailure) {
  for (Kind kind : {Kind::kSS, Kind::kGSS, Kind::kFAC2, Kind::kTSS, Kind::kBOLD}) {
    mw::Config cfg = base_config(kind, 4, 400);
    cfg.worker_failure_times = {30.0, kNever, kNever, kNever};
    const mw::RunResult r = mw::run_simulation(cfg);
    std::size_t completed = 0;
    for (const mw::WorkerStats& w : r.workers) completed += w.tasks;
    EXPECT_EQ(completed, 400u) << dls::to_string(kind);
    EXPECT_TRUE(r.workers[0].failed) << dls::to_string(kind);
    EXPECT_FALSE(r.workers[1].failed) << dls::to_string(kind);
  }
}

TEST(Resilience, LostWorkIsReclaimedAndRedone) {
  // STAT hands worker 0 a 100-task block; it dies at t = 10 having
  // completed nothing (fail-stop loses the whole chunk).
  mw::Config cfg = base_config(Kind::kStatic, 4, 400);
  cfg.worker_failure_times = {10.0, kNever, kNever, kNever};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_EQ(r.tasks_reclaimed, 100u);
  EXPECT_EQ(r.workers[0].tasks, 0u);  // its work was redone elsewhere
  std::size_t completed = 0;
  for (const mw::WorkerStats& w : r.workers) completed += w.tasks;
  EXPECT_EQ(completed, 400u);
}

TEST(Resilience, FailureDelaysCompletion) {
  mw::Config healthy = base_config(Kind::kFAC2, 4, 400);
  mw::Config faulty = base_config(Kind::kFAC2, 4, 400);
  faulty.worker_failure_times = {20.0, kNever, kNever, kNever};
  const double m_healthy = mw::run_simulation(healthy).makespan;
  const double m_faulty = mw::run_simulation(faulty).makespan;
  EXPECT_GT(m_faulty, m_healthy);
  // But bounded: three survivors -> at most ~4/3 the work each plus
  // the lost-and-redone chunk.
  EXPECT_LT(m_faulty, m_healthy * 2.5);
}

TEST(Resilience, ImmediateFailureMeansWorkerNeverContributes) {
  mw::Config cfg = base_config(Kind::kSS, 3, 90);
  cfg.worker_failure_times = {0.0, kNever, kNever};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_TRUE(r.workers[0].failed);
  EXPECT_EQ(r.workers[0].tasks, 0u);
  std::size_t completed = 0;
  for (const mw::WorkerStats& w : r.workers) completed += w.tasks;
  EXPECT_EQ(completed, 90u);
  // Two survivors share the 90 tasks.
  EXPECT_NEAR(r.makespan, 45.0, 2.0);
}

TEST(Resilience, MultipleFailuresSurvived) {
  mw::Config cfg = base_config(Kind::kGSS, 8, 800);
  cfg.worker_failure_times = {15.0, 25.0, kNever, kNever, kNever, kNever, kNever, 40.0};
  const mw::RunResult r = mw::run_simulation(cfg);
  std::size_t completed = 0;
  std::size_t failed = 0;
  for (const mw::WorkerStats& w : r.workers) {
    completed += w.tasks;
    if (w.failed) ++failed;
  }
  EXPECT_EQ(completed, 800u);
  EXPECT_EQ(failed, 3u);
}

TEST(Resilience, AllWorkersFailingThrows) {
  mw::Config cfg = base_config(Kind::kSS, 2, 100);
  cfg.worker_failure_times = {5.0, 7.0};
  EXPECT_THROW((void)mw::run_simulation(cfg), std::runtime_error);
}

TEST(Resilience, MidChunkFailureLosesPartialWork) {
  // One worker, tasks of 1 s, CSS chunk of 10: the worker dies at
  // t = 5.5, mid-chunk.  A second worker finishes everything.
  mw::Config cfg = base_config(Kind::kCSS, 2, 20);
  cfg.params.css_chunk = 10;
  cfg.worker_failure_times = {5.5, kNever};
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_TRUE(r.workers[0].failed);
  EXPECT_EQ(r.tasks_reclaimed, 10u);
  EXPECT_EQ(r.workers[1].tasks, 20u);
  // The dead worker burned 5.5 s of compute that produced nothing.
  EXPECT_NEAR(r.workers[0].compute_time, 5.5, 1e-6);
}

TEST(Resilience, FailuresAcrossTimesteps) {
  mw::Config cfg = base_config(Kind::kAWFB, 4, 200);
  cfg.timesteps = 3;
  cfg.worker_failure_times = {80.0, kNever, kNever, kNever};  // dies in a later step
  const mw::RunResult r = mw::run_simulation(cfg);
  std::size_t completed = 0;
  for (const mw::WorkerStats& w : r.workers) completed += w.tasks;
  EXPECT_EQ(completed, 600u);
  EXPECT_TRUE(r.workers[0].failed);
}

TEST(Resilience, ValidatesFailureVector) {
  mw::Config cfg = base_config(Kind::kSS, 2, 10);
  cfg.worker_failure_times = {1.0};  // wrong size
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
  cfg.worker_failure_times = {-1.0, kNever};
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
  // NaN compares false against everything, so it must not pass as
  // "never fails".
  cfg.worker_failure_times = {std::numeric_limits<double>::quiet_NaN(), kNever};
  EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument);
}

TEST(Resilience, ReclaimedRangesAreServedExactlyOnce) {
  // CSS chunks of 25 tasks of 1 s; worker 0 dies at t = 10, mid-chunk,
  // so its 25-task chunk returns to the pool and fragments it.  Every
  // task must be served exactly once -- except the lost chunk's tasks,
  // which are re-served exactly once more.
  mw::Config cfg = base_config(Kind::kCSS, 4, 400);
  cfg.params.css_chunk = 25;
  cfg.worker_failure_times = {10.0, kNever, kNever, kNever};
  cfg.record_chunk_log = true;
  const mw::RunResult r = mw::run_simulation(cfg);
  ASSERT_FALSE(r.chunk_log.empty());
  ASSERT_FALSE(r.range_log.empty());
  EXPECT_EQ(r.tasks_reclaimed, 25u);

  // The lost chunk is the failed worker's last logged chunk (it never
  // completed it and never received another).
  std::size_t lost_chunk = r.chunk_log.size();
  for (std::size_t i = 0; i < r.chunk_log.size(); ++i) {
    if (r.chunk_log[i].pe == 0) lost_chunk = i;
  }
  ASSERT_LT(lost_chunk, r.chunk_log.size());
  EXPECT_EQ(r.chunk_log[lost_chunk].size, r.tasks_reclaimed);

  std::vector<int> served(400, 0);
  std::vector<int> lost(400, 0);
  std::vector<std::size_t> chunk_range_tasks(r.chunk_log.size(), 0);
  for (const mw::ServedRangeEntry& e : r.range_log) {
    ASSERT_LT(e.chunk, r.chunk_log.size());
    ASSERT_LE(e.first + e.count, 400u);
    chunk_range_tasks[e.chunk] += e.count;
    for (std::size_t t = e.first; t < e.first + e.count; ++t) {
      ++served[t];
      if (e.chunk == lost_chunk) lost[t] = 1;
    }
  }
  for (std::size_t t = 0; t < 400; ++t) {
    EXPECT_EQ(served[t], 1 + lost[t]) << "task " << t;
  }
  // The ranges of each chunk cover exactly its size, and with the
  // constant 1 s workload the prefix-sum nominal seconds are exactly
  // the chunk size.
  for (std::size_t c = 0; c < r.chunk_log.size(); ++c) {
    EXPECT_EQ(chunk_range_tasks[c], r.chunk_log[c].size) << "chunk " << c;
    EXPECT_EQ(r.chunk_log[c].work_seconds, static_cast<double>(r.chunk_log[c].size))
        << "chunk " << c;
  }
}

TEST(Resilience, ChunkSecondsMatchPrefixSumTotalsUnderFragmentation) {
  // Stochastic workload + mid-run failure: rebuild the run's task times
  // from the seed and verify that every chunk's nominal seconds equal
  // the prefix-sum totals over its served ranges, bit for bit.
  mw::Config cfg = base_config(Kind::kFAC2, 4, 512);
  cfg.workload = workload::exponential(1.0);
  cfg.params.sigma = 1.0;
  cfg.seed = 4242;
  cfg.worker_failure_times = {12.0, kNever, kNever, kNever};
  cfg.record_chunk_log = true;
  const mw::RunResult r = mw::run_simulation(cfg);
  ASSERT_FALSE(r.range_log.empty());
  EXPECT_GT(r.tasks_reclaimed, 0u);

  workload::XoshiroSource rng(4242);
  const std::vector<double> times = workload::exponential(1.0)->generate(512, rng);
  std::vector<double> prefix(times.size() + 1, 0.0);
  double running = 0.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    running += times[i];
    prefix[i + 1] = running;
  }

  std::vector<double> reconstructed(r.chunk_log.size(), 0.0);
  for (const mw::ServedRangeEntry& e : r.range_log) {
    reconstructed[e.chunk] += prefix[e.first + e.count] - prefix[e.first];
  }
  for (std::size_t c = 0; c < r.chunk_log.size(); ++c) {
    EXPECT_EQ(reconstructed[c], r.chunk_log[c].work_seconds) << "chunk " << c;
  }
}

TEST(Resilience, NoFailuresMatchesBaseline) {
  mw::Config plain = base_config(Kind::kFAC2, 4, 400);
  mw::Config with_vector = base_config(Kind::kFAC2, 4, 400);
  with_vector.worker_failure_times = {kNever, kNever, kNever, kNever};
  EXPECT_DOUBLE_EQ(mw::run_simulation(plain).makespan,
                   mw::run_simulation(with_vector).makespan);
}

}  // namespace
