// Cross-backend conformance: the mw message-passing simulator and the
// hagerup direct simulator must make bitwise-identical scheduling
// decisions in the regime where that is a theorem (null network,
// analytic overhead, homogeneous, failure-free, non-adaptive), and the
// execution-level determinism invariants must hold.

#include <gtest/gtest.h>

#include <limits>

#include "check/invariants.hpp"
#include "check/runner.hpp"
#include "exec/backend.hpp"
#include "workload/task_times.hpp"

namespace {

using check::Scenario;
using dls::Kind;

Scenario null_network_scenario(Kind kind, std::size_t workers, std::size_t tasks,
                               const std::string& workload, std::uint64_t seed,
                               bool rand48 = false) {
  Scenario s;
  s.config.technique = kind;
  s.config.workers = workers;
  s.config.tasks = tasks;
  s.config.workload = workload::from_spec(workload);
  s.config.params.mu = s.config.workload->mean();
  s.config.params.sigma = s.config.workload->stddev();
  s.config.params.h = 0.5;
  s.config.latency = 0.0;
  s.config.bandwidth = std::numeric_limits<double>::infinity();
  s.config.seed = seed;
  s.config.use_rand48 = rand48;
  s.config.record_chunk_log = true;
  check::classify(s);
  return s;
}

class IdenticalSequences : public ::testing::TestWithParam<Kind> {};

TEST_P(IdenticalSequences, MwAndHagerupChunkSequencesAreBitwiseIdentical) {
  for (const char* workload : {"constant:1", "exponential:1", "ramp:2,0.1"}) {
    for (std::uint64_t seed : {7ull, 1234ull}) {
      const Scenario s = null_network_scenario(GetParam(), 8, 1024, workload, seed);
      ASSERT_TRUE(s.hagerup_identical());
      const exec::BackendRun mw_run = exec::make_backend("mw")->run(s.config);
      const exec::BackendRun hagerup_run = exec::make_backend("hagerup")->run(s.config);
      ASSERT_EQ(mw_run.chunk_log.size(), hagerup_run.chunk_log.size())
          << workload << " seed " << seed;
      for (std::size_t c = 0; c < mw_run.chunk_log.size(); ++c) {
        ASSERT_EQ(mw_run.chunk_log[c].first, hagerup_run.chunk_log[c].first)
            << workload << " seed " << seed << " chunk " << c;
        ASSERT_EQ(mw_run.chunk_log[c].size, hagerup_run.chunk_log[c].size)
            << workload << " seed " << seed << " chunk " << c;
      }
      EXPECT_EQ(check::check_cross_backend(s, mw_run, hagerup_run), std::nullopt);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NonAdaptiveKinds, IdenticalSequences,
                         ::testing::Values(Kind::kStatic, Kind::kSS, Kind::kCSS, Kind::kFSC,
                                           Kind::kGSS, Kind::kTSS, Kind::kFAC, Kind::kFAC2,
                                           Kind::kTAP, Kind::kMFSC, Kind::kTFSS, Kind::kRND),
                         [](const ::testing::TestParamInfo<Kind>& param_info) {
                           std::string name = dls::to_string(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Conformance, CrossBackendCheckCatchesDivergence) {
  const Scenario s = null_network_scenario(Kind::kGSS, 4, 256, "exponential:1", 42);
  const exec::BackendRun mw_run = exec::make_backend("mw")->run(s.config);
  exec::BackendRun hagerup_run = exec::make_backend("hagerup")->run(s.config);
  hagerup_run.chunk_log[2].size += 1;  // inject a divergence
  EXPECT_NE(check::check_cross_backend(s, mw_run, hagerup_run), std::nullopt);
}

TEST(Conformance, MwDeterminismHoldsAcrossContextReuse) {
  const Scenario s = null_network_scenario(Kind::kFAC2, 6, 512, "exponential:1", 99);
  const exec::BackendRun run = exec::make_backend("mw")->run(s.config);
  EXPECT_EQ(check::check_mw_determinism(s, run), std::nullopt);
}

TEST(Conformance, BatchResultsAreBitwiseIdenticalAcrossThreadCounts) {
  Scenario s = null_network_scenario(Kind::kBOLD, 8, 512, "exponential:1", 5, /*rand48=*/true);
  EXPECT_EQ(check::check_batch_determinism(s, 6), std::nullopt);
}

TEST(Conformance, MoreWorkersNeverWorsenConstantWorkloads) {
  for (Kind kind : {Kind::kStatic, Kind::kSS, Kind::kGSS, Kind::kTSS, Kind::kFAC2,
                    Kind::kMFSC, Kind::kTFSS}) {
    const Scenario s = null_network_scenario(kind, 3, 777, "constant:1", 1);
    EXPECT_EQ(check::check_worker_monotonicity(s), std::nullopt) << dls::to_string(kind);
  }
}

TEST(Conformance, RuntimeBackendSatisfiesStructuralInvariants) {
  for (Kind kind : {Kind::kSS, Kind::kGSS, Kind::kFAC2, Kind::kAWFB, Kind::kAF}) {
    const Scenario s = null_network_scenario(kind, 8, 2000, "constant:1", 3);
    const exec::BackendRun run =
        exec::make_backend("runtime", check::kRuntimeFuzzOptions)->run(s.config);
    EXPECT_EQ(check::check_chunk_bounds(run), std::nullopt) << dls::to_string(kind);
    EXPECT_EQ(check::check_coverage(run), std::nullopt) << dls::to_string(kind);
    EXPECT_EQ(check::check_conservation(run), std::nullopt) << dls::to_string(kind);
  }
}

}  // namespace
