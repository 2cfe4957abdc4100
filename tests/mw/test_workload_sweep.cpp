// Property sweep: every workload family x a representative technique
// set through the full master-worker stack.  Catches distribution-
// specific breakage (zero/huge task times, heavy tails) that the
// exponential-only reproduction path would miss.

#include <gtest/gtest.h>

#include "exec/backend.hpp"
#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

namespace {

struct SweepCase {
  const char* workload;
  dls::Kind kind;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = info.param.workload;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_" + dls::to_string(info.param.kind);
}

class WorkloadSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(WorkloadSweep, SimulationIsConsistent) {
  mw::Config cfg;
  cfg.technique = GetParam().kind;
  cfg.workers = 8;
  cfg.tasks = 2048;
  cfg.workload = workload::from_spec(GetParam().workload);
  cfg.params.mu = cfg.workload->mean();
  cfg.params.sigma = cfg.workload->stddev();
  cfg.params.h = 0.05;
  cfg.seed = 31337;

  const mw::RunResult r = mw::run_simulation(cfg);
  const double speedup = exec::make_backend("mw")->measure(cfg).speedup;

  // Conservation and bounds.
  std::size_t tasks = 0;
  double compute = 0.0;
  for (const mw::WorkerStats& w : r.workers) {
    tasks += w.tasks;
    compute += w.compute_time;
    EXPECT_LE(w.compute_time, r.makespan * 1.0000001);
  }
  EXPECT_EQ(tasks, 2048u);
  EXPECT_NEAR(compute, r.total_nominal_work, r.total_nominal_work * 1e-9);
  EXPECT_GT(speedup, 0.0);
  EXPECT_LE(speedup, 8.0 + 1e-9);
  EXPECT_GE(r.avg_wasted_time, 0.0);
  // Makespan is at least the critical path lower bound work/p.
  EXPECT_GE(r.makespan, r.total_nominal_work / 8.0 * 0.9999);
}

std::vector<SweepCase> sweep_grid() {
  const char* workloads[] = {
      "constant:1.0",      "uniform:0.5,1.5",   "exponential:1.0", "normal:1.0,0.3",
      "gamma:2.0,0.5",     "lognormal:1.0,1.0", "weibull:1.5,1.0", "bimodal:0.1,2.0,0.3",
      "ramp:2.0,0.1",      "ramp:0.1,2.0"};
  const dls::Kind kinds[] = {dls::Kind::kStatic, dls::Kind::kGSS,  dls::Kind::kTSS,
                             dls::Kind::kFAC,    dls::Kind::kBOLD, dls::Kind::kAF};
  std::vector<SweepCase> cases;
  for (const char* w : workloads) {
    for (dls::Kind k : kinds) cases.push_back({w, k});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, WorkloadSweep, ::testing::ValuesIn(sweep_grid()), case_name);

TEST(WorkloadSweep, DecreasingRampFavorsDecreasingChunks) {
  // The TSS publication's motivation: with decreasing task times, the
  // trapezoid's large-first chunks align cost with capacity; compare
  // against CSS's fixed blocks under the same workload.
  auto run = [](dls::Kind kind) {
    mw::Config cfg;
    cfg.technique = kind;
    cfg.workers = 8;
    cfg.tasks = 8192;
    cfg.workload = workload::linear_ramp(2.0, 0.01);
    cfg.params.h = 0.0;
    return exec::make_backend("mw")->measure(cfg).speedup;
  };
  EXPECT_GT(run(dls::Kind::kTSS), run(dls::Kind::kCSS));
}

TEST(WorkloadSweep, IncreasingRampIsTheHardCaseForDecreasingChunks) {
  // With increasing task times the tail tasks are the expensive ones;
  // the decreasing-chunk families must still self-correct and beat
  // static chunking, whose last block contains all the heavy tasks.
  auto run = [](dls::Kind kind) {
    mw::Config cfg;
    cfg.technique = kind;
    cfg.workers = 8;
    cfg.tasks = 8192;
    cfg.workload = workload::linear_ramp(0.01, 2.0);
    cfg.params.h = 0.0;
    return exec::make_backend("mw")->measure(cfg).speedup;
  };
  EXPECT_GT(run(dls::Kind::kFAC2), run(dls::Kind::kStatic));
  EXPECT_GT(run(dls::Kind::kGSS), run(dls::Kind::kStatic));
}

}  // namespace
