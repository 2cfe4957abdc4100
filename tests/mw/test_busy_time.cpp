// Per-worker busy time of a run: RunResult::workers carries each
// worker's completed tasks and compute time, so compute_time /
// makespan is the fraction of the run it spent executing tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

namespace {

double busy_fraction(const mw::RunResult& r, const mw::WorkerStats& w) {
  return w.compute_time / r.makespan;
}

TEST(BusyTime, UtilizationNearOneForBalancedRun) {
  mw::Config cfg;
  cfg.technique = dls::Kind::kStatic;
  cfg.workers = 4;
  cfg.tasks = 400;
  cfg.workload = workload::constant(1.0);
  cfg.params.h = 0.0;
  const mw::RunResult r = mw::run_simulation(cfg);
  ASSERT_EQ(r.workers.size(), 4u);
  for (std::size_t pe = 0; pe < r.workers.size(); ++pe) {
    EXPECT_NEAR(busy_fraction(r, r.workers[pe]), 1.0, 0.01) << "pe " << pe;
    EXPECT_EQ(r.workers[pe].tasks, 100u) << "pe " << pe;
  }
}

TEST(BusyTime, UtilizationSeesIdleStraggler) {
  // One giant task at the end of a STAT block starves the other PEs.
  auto values = std::vector<double>(100, 0.1);
  values[99] = 30.0;
  mw::Config cfg;
  cfg.technique = dls::Kind::kStatic;
  cfg.workers = 4;
  cfg.tasks = 100;
  cfg.workload = workload::trace(values);
  const mw::RunResult r = mw::run_simulation(cfg);
  ASSERT_EQ(r.workers.size(), 4u);
  // The worker holding the giant block is busy ~100%; others mostly idle.
  double max_u = 0.0, min_u = 1.0;
  for (const mw::WorkerStats& w : r.workers) {
    max_u = std::max(max_u, busy_fraction(r, w));
    min_u = std::min(min_u, busy_fraction(r, w));
  }
  EXPECT_GT(max_u, 0.95);
  EXPECT_LT(min_u, 0.20);
}

}  // namespace
