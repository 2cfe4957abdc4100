// Cross-simulator integration tests: the replicated Hagerup simulator,
// the simx master-worker simulation, and the BBN machine model must
// tell mutually consistent stories -- this is the reproducibility claim
// of the paper in miniature.

#include <gtest/gtest.h>

#include <cmath>

#include "hagerup/simulator.hpp"
#include "mw/metrics.hpp"
#include "mw/simulation.hpp"
#include "pool/executor.hpp"
#include "stats/summary.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

double mean_hagerup_wasted(Kind kind, std::size_t pes, std::size_t tasks, std::size_t runs) {
  std::vector<double> values(runs);
  pool::Executor::shared().parallel_for(runs, [&](std::size_t i) {
    hagerup::Config cfg;
    cfg.technique = kind;
    cfg.pes = pes;
    cfg.tasks = tasks;
    cfg.params.h = 0.5;
    cfg.params.mu = 1.0;
    cfg.params.sigma = 1.0;
    cfg.workload = workload::exponential(1.0);
    cfg.seed = 1000 + 13 * i;
    values[i] = hagerup::run(cfg).avg_wasted_time;
  });
  return stats::summarize(values).mean;
}

double mean_mw_wasted(Kind kind, std::size_t pes, std::size_t tasks, std::size_t runs) {
  std::vector<double> values(runs);
  pool::Executor::shared().parallel_for(runs, [&](std::size_t i) {
    mw::Config cfg;
    cfg.technique = kind;
    cfg.workers = pes;
    cfg.tasks = tasks;
    cfg.params.h = 0.5;
    cfg.params.mu = 1.0;
    cfg.params.sigma = 1.0;
    cfg.workload = workload::exponential(1.0);
    cfg.seed = 555000 + 17 * i;
    values[i] = mw::compute_metrics(mw::run_simulation(cfg), cfg).avg_wasted_time;
  });
  return stats::summarize(values).mean;
}

class CrossSimulator : public ::testing::TestWithParam<Kind> {};

TEST_P(CrossSimulator, MasterWorkerReproducesDirectSimulator) {
  // n = 1024, p = 8, 40 runs per side with independent seeds: the two
  // implementations must agree within a generous band (the paper
  // achieves <= 15% with 1000 runs; small samples wobble more).
  const Kind kind = GetParam();
  const double original = mean_hagerup_wasted(kind, 8, 1024, 40);
  const double simulated = mean_mw_wasted(kind, 8, 1024, 40);
  const double rel = 100.0 * std::abs(simulated - original) / original;
  EXPECT_LT(rel, 30.0) << dls::to_string(kind) << ": original=" << original
                       << " simulated=" << simulated;
}

INSTANTIATE_TEST_SUITE_P(BoldPublicationTechniques, CrossSimulator,
                         ::testing::ValuesIn(dls::bold_publication_kinds()),
                         [](const ::testing::TestParamInfo<Kind>& param_info) {
                           return dls::to_string(param_info.param);
                         });

TEST(CrossSimulator, TechniqueOrderingIsConsistentAcrossSimulators) {
  // Whatever the absolute values, both simulators must agree that SS
  // wastes more time than BOLD, and FSC more than FAC (n=1024, p=8,
  // exp(1), h=0.5 -- a regime where these orderings are robust).
  const double h_ss = mean_hagerup_wasted(Kind::kSS, 8, 1024, 25);
  const double h_bold = mean_hagerup_wasted(Kind::kBOLD, 8, 1024, 25);
  const double m_ss = mean_mw_wasted(Kind::kSS, 8, 1024, 25);
  const double m_bold = mean_mw_wasted(Kind::kBOLD, 8, 1024, 25);
  EXPECT_GT(h_ss, h_bold * 2.0);
  EXPECT_GT(m_ss, m_bold * 2.0);
}

TEST(CrossSimulator, ChunkCountsAgreeUnderConstantWorkload) {
  // With sigma = 0 and identical deterministic workloads, the two
  // simulators make identical scheduling decisions.
  for (Kind kind : {Kind::kStatic, Kind::kGSS, Kind::kTSS, Kind::kFAC2}) {
    hagerup::Config hcfg;
    hcfg.technique = kind;
    hcfg.pes = 8;
    hcfg.tasks = 4096;
    hcfg.params.h = 0.5;
    hcfg.params.mu = 1.0;
    hcfg.params.sigma = 0.0;
    hcfg.workload = workload::constant(1.0);
    const hagerup::RunResult hr = hagerup::run(hcfg);

    mw::Config mcfg;
    mcfg.technique = kind;
    mcfg.workers = 8;
    mcfg.tasks = 4096;
    mcfg.params.h = 0.5;
    mcfg.params.mu = 1.0;
    mcfg.params.sigma = 0.0;
    mcfg.workload = workload::constant(1.0);
    const mw::RunResult mr = mw::run_simulation(mcfg);

    EXPECT_EQ(hr.chunk_count, mr.chunk_count) << dls::to_string(kind);
  }
}

// ------------------------------------------------------------------
// The strongest equivalence check: with the same generator, the same
// seed and the analytic overhead accounting, the replicated direct
// simulator and the message-passing master-worker simulation must make
// IDENTICAL scheduling decisions and produce numerically identical
// average wasted times.  (This was used to root-cause the apparent
// GSS discrepancy at n = 524288 down to pure sampling noise.)

struct SameSeedCase {
  Kind kind;
  std::size_t pes;
  std::size_t tasks;
};

class SameSeedEquivalence : public ::testing::TestWithParam<SameSeedCase> {};

TEST_P(SameSeedEquivalence, SimulatorsAgreeExactly) {
  const SameSeedCase& c = GetParam();
  for (std::uint64_t seed : {7ull, 1234ull, 987654ull}) {
    hagerup::Config hcfg;
    hcfg.technique = c.kind;
    hcfg.pes = c.pes;
    hcfg.tasks = c.tasks;
    hcfg.params.h = 0.5;
    hcfg.params.mu = 1.0;
    hcfg.params.sigma = 1.0;
    hcfg.workload = workload::exponential(1.0);
    hcfg.use_rand48 = false;  // same generator as the mw side
    hcfg.charge_overhead_inline = false;
    hcfg.seed = seed;
    const hagerup::RunResult hr = hagerup::run(hcfg);

    mw::Config mcfg;
    mcfg.technique = c.kind;
    mcfg.workers = c.pes;
    mcfg.tasks = c.tasks;
    mcfg.params.h = 0.5;
    mcfg.params.mu = 1.0;
    mcfg.params.sigma = 1.0;
    mcfg.workload = workload::exponential(1.0);
    mcfg.seed = seed;
    const mw::RunResult mr = mw::run_simulation(mcfg);
    const mw::Metrics mm = mw::compute_metrics(mr, mcfg);

    ASSERT_EQ(hr.chunk_count, mr.chunk_count) << dls::to_string(c.kind) << " seed " << seed;
    EXPECT_NEAR(mm.avg_wasted_time, hr.avg_wasted_time,
                1e-6 * std::max(1.0, hr.avg_wasted_time))
        << dls::to_string(c.kind) << " seed " << seed;
    EXPECT_NEAR(mm.makespan, hr.makespan, 1e-6 * hr.makespan)
        << dls::to_string(c.kind) << " seed " << seed;
  }
}

std::vector<SameSeedCase> same_seed_grid() {
  std::vector<SameSeedCase> cases;
  for (Kind k : dls::bold_publication_kinds()) {
    cases.push_back({k, 8, 1024});
    cases.push_back({k, 64, 8192});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, SameSeedEquivalence, ::testing::ValuesIn(same_seed_grid()),
                         [](const ::testing::TestParamInfo<SameSeedCase>& param_info) {
                           return dls::to_string(param_info.param.kind) + "_p" +
                                  std::to_string(param_info.param.pes) + "_n" +
                                  std::to_string(param_info.param.tasks);
                         });

TEST(CrossSimulator, WastedTimeDecreasesRelativeGapWithMoreTasks) {
  // The paper's observation: "With increasing number of tasks, the
  // relative difference ... is decreasing."  Verified here between the
  // two overhead accountings (inline vs analytic) for SS, where end
  // effects shrink as n grows.
  auto rel_gap = [&](std::size_t tasks) {
    const double original = mean_hagerup_wasted(Kind::kSS, 8, tasks, 10);
    const double simulated = mean_mw_wasted(Kind::kSS, 8, tasks, 10);
    return 100.0 * std::abs(simulated - original) / original;
  };
  const double small_n = rel_gap(256);
  const double large_n = rel_gap(8192);
  EXPECT_LT(large_n, small_n + 5.0);  // monotone within noise tolerance
}

}  // namespace
