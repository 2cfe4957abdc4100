// The paper's measured values of an mw run: the average wasted time
// mw::run_simulation reports, and the speedup and chunk count of the
// mw backend's measure().

#include <gtest/gtest.h>

#include "exec/backend.hpp"
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

exec::Measured measure(const mw::Config& cfg) { return exec::make_backend("mw")->measure(cfg); }

TEST(Metrics, AnalyticWastedTimeAddsOverheadPerChunk) {
  // SS, constant 1 s tasks, p = 2, n = 100: idle ~ 0, so the average
  // wasted time is dominated by h*K/p = 0.5*100/2 = 25.
  const mw::Config cfg = base_config(Kind::kSS, 2, 100);
  EXPECT_NEAR(mw::run_simulation(cfg).avg_wasted_time, 25.0, 0.01);
}

TEST(Metrics, SimulatedModeDoesNotDoubleCountOverhead) {
  mw::Config cfg = base_config(Kind::kSS, 2, 100);
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  const mw::RunResult r = mw::run_simulation(cfg);
  // Wasted time comes purely from the in-simulation waiting; with the
  // master serializing 0.5 s per chunk against 1 s tasks on 2 workers,
  // workers stall roughly half the run, not the full h*K/p again.
  EXPECT_GT(r.avg_wasted_time, 5.0);
  EXPECT_LT(r.avg_wasted_time, 60.0);
  EXPECT_GT(r.makespan, r.total_nominal_work / 2.0);
}

TEST(Metrics, SpeedupBoundedByWorkers) {
  for (Kind kind : {Kind::kStatic, Kind::kGSS, Kind::kFAC2}) {
    const exec::Measured m = measure(base_config(kind, 8, 4096));
    EXPECT_LE(m.speedup, 8.0 + 1e-9) << dls::to_string(kind);
    EXPECT_GT(m.speedup, 0.0) << dls::to_string(kind);
  }
}

TEST(Metrics, PerfectBalanceGivesNearIdealSpeedup) {
  EXPECT_NEAR(measure(base_config(Kind::kStatic, 8, 4096)).speedup, 8.0, 0.01);
}

TEST(Metrics, ChunksMatchRunResult) {
  const mw::Config cfg = base_config(Kind::kFAC2, 4, 1024);
  const mw::RunResult r = mw::run_simulation(cfg);
  const exec::Measured m = measure(cfg);
  EXPECT_EQ(m.chunks, static_cast<double>(r.chunk_count));
  EXPECT_DOUBLE_EQ(m.makespan, r.makespan);
}

}  // namespace
