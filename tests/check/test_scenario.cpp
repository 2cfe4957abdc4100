// Tests for the check scenario fuzzer: deterministic generation, full
// coverage of the Config space, and replayable experiment-file output.

#include <gtest/gtest.h>

#include <set>

#include "check/scenario.hpp"
#include "sweep/experiment.hpp"

namespace {

using check::Scenario;

TEST(Scenario, GenerationIsDeterministic) {
  for (std::size_t i = 0; i < 50; ++i) {
    const Scenario a = check::generate_scenario(123, i);
    const Scenario b = check::generate_scenario(123, i);
    EXPECT_EQ(check::to_experiment_text(a), check::to_experiment_text(b)) << "index " << i;
  }
}

TEST(Scenario, DifferentSeedsGiveDifferentStreams) {
  std::size_t differing = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    if (check::to_experiment_text(check::generate_scenario(1, i)) !=
        check::to_experiment_text(check::generate_scenario(2, i))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 15u);
}

TEST(Scenario, SpansTheConfigSpace) {
  // Over a few hundred scenarios the generator must exercise every
  // technique and every structural dimension of the space.
  std::set<dls::Kind> techniques;
  std::size_t with_failures = 0;
  std::size_t with_profiles = 0;
  std::size_t with_factors = 0;
  std::size_t with_timesteps = 0;
  std::size_t null_network = 0;
  std::size_t simulated_overhead = 0;
  std::size_t rand48 = 0;
  std::size_t hagerup_identical = 0;
  const std::size_t kRuns = 400;
  for (std::size_t i = 0; i < kRuns; ++i) {
    const Scenario s = check::generate_scenario(7, i);
    techniques.insert(s.config.technique);
    if (s.has_failures) ++with_failures;
    if (!s.config.worker_speed_profiles.empty()) ++with_profiles;
    if (!s.config.worker_speed_factors.empty()) ++with_factors;
    if (s.config.timesteps > 1) ++with_timesteps;
    if (s.null_network) ++null_network;
    if (s.config.overhead_mode == mw::OverheadMode::kSimulated) ++simulated_overhead;
    if (s.config.use_rand48) ++rand48;
    if (s.hagerup_identical()) ++hagerup_identical;
  }
  EXPECT_EQ(techniques.size(), dls::all_kinds().size());
  EXPECT_GT(with_failures, kRuns / 20);
  EXPECT_GT(with_profiles, kRuns / 20);
  EXPECT_GT(with_factors, kRuns / 20);
  EXPECT_GT(with_timesteps, kRuns / 20);
  EXPECT_GT(null_network, kRuns / 4);
  EXPECT_GT(simulated_overhead, kRuns / 20);
  EXPECT_GT(rand48, kRuns / 4);
  EXPECT_GT(hagerup_identical, kRuns / 20);
}

TEST(Scenario, RespectsBounds) {
  check::ScenarioOptions options;
  options.max_tasks = 128;
  options.min_tasks = 16;
  options.max_workers = 4;
  options.max_timesteps = 2;
  for (std::size_t i = 0; i < 100; ++i) {
    const Scenario s = check::generate_scenario(11, i, options);
    EXPECT_GE(s.config.tasks, 15u);  // log-uniform rounding may undershoot by < 1
    EXPECT_LE(s.config.tasks, 129u);
    EXPECT_GE(s.config.workers, 1u);
    EXPECT_LE(s.config.workers, 4u);
    EXPECT_LE(s.config.timesteps, 2u);
  }
}

TEST(Scenario, AlwaysKeepsASurvivor) {
  for (std::size_t i = 0; i < 300; ++i) {
    const Scenario s = check::generate_scenario(13, i);
    if (s.config.worker_failure_times.empty()) continue;
    bool survivor = false;
    for (double t : s.config.worker_failure_times) {
      if (t == std::numeric_limits<double>::infinity()) survivor = true;
    }
    EXPECT_TRUE(survivor) << "index " << i;
  }
}

TEST(Scenario, ExperimentTextRoundTrips) {
  // The emitted experiment file must parse back to the generated
  // config, field by field: a field the grammar cannot carry would
  // make the "replayable" text replay a different run.
  for (std::size_t i = 0; i < 100; ++i) {
    const Scenario s = check::generate_scenario(17, i);
    const std::string text = check::to_experiment_text(s);
    sweep::ExperimentSpec spec;
    ASSERT_NO_THROW(spec = sweep::parse_experiment_spec(text)) << text;
    const mw::Config& want = s.config;
    const mw::Config& got = spec.config;
    dls::Params want_params = want.params;
    dls::Params got_params = got.params;
    want_params.p = got_params.p = want.workers;
    want_params.n = got_params.n = want.tasks;
    EXPECT_TRUE(got_params == want_params) << "index " << i << "\n" << text;
    EXPECT_EQ(got.technique, want.technique) << "index " << i;
    EXPECT_EQ(got.tasks, want.tasks) << "index " << i;
    EXPECT_EQ(got.workload->spec(), want.workload->spec()) << "index " << i;
    EXPECT_EQ(got.timesteps, want.timesteps) << "index " << i;
    EXPECT_EQ(got.workers, want.workers) << "index " << i;
    EXPECT_EQ(got.host_speed, want.host_speed) << "index " << i;
    EXPECT_EQ(got.worker_speed_factors, want.worker_speed_factors) << "index " << i;
    ASSERT_EQ(got.worker_speed_profiles.size(), want.worker_speed_profiles.size())
        << "index " << i;
    for (std::size_t w = 0; w < want.worker_speed_profiles.size(); ++w) {
      EXPECT_EQ(got.worker_speed_profiles[w].time_points,
                want.worker_speed_profiles[w].time_points)
          << "index " << i << " worker " << w;
      EXPECT_EQ(got.worker_speed_profiles[w].speeds, want.worker_speed_profiles[w].speeds)
          << "index " << i << " worker " << w;
    }
    EXPECT_EQ(got.worker_failure_times, want.worker_failure_times) << "index " << i;
    EXPECT_EQ(got.bandwidth, want.bandwidth) << "index " << i;
    EXPECT_EQ(got.latency, want.latency) << "index " << i;
    EXPECT_EQ(got.request_bytes, want.request_bytes) << "index " << i;
    EXPECT_EQ(got.reply_bytes, want.reply_bytes) << "index " << i;
    EXPECT_EQ(got.overhead_mode, want.overhead_mode) << "index " << i;
    EXPECT_EQ(got.seed, want.seed) << "index " << i;
    EXPECT_EQ(got.use_rand48, want.use_rand48) << "index " << i;
  }
}

TEST(Scenario, ClassificationIsConsistent) {
  std::size_t near_null_comparable = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    Scenario s = check::generate_scenario(19, i);
    if (s.hagerup_comparable() && !s.null_network) ++near_null_comparable;
    if (s.hagerup_identical()) {
      EXPECT_TRUE(s.hagerup_comparable());
    }
    if (s.hagerup_comparable()) {
      // Null or near-null: the network the hagerup backend accepts.
      EXPECT_LE(mw::message_delay(s.config, s.config.request_bytes + s.config.reply_bytes),
                1e-9);
      EXPECT_FALSE(s.heterogeneous);
      EXPECT_FALSE(s.has_failures);
      EXPECT_EQ(s.config.timesteps, 1u);
    }
    // classify() recomputes the derived facts from the config alone.
    const bool was_identical = s.hagerup_identical();
    check::classify(s);
    EXPECT_EQ(s.hagerup_identical(), was_identical);
    if (s.config.workers > 1) {
      s.config.worker_failure_times.assign(s.config.workers, 1.0);
      s.config.worker_failure_times.front() = std::numeric_limits<double>::infinity();
      check::classify(s);
      EXPECT_TRUE(s.has_failures);
      EXPECT_FALSE(s.hagerup_comparable());
    }
  }
  EXPECT_GT(near_null_comparable, 0u);  // the BOLD near-null network is cross-checked too
}

}  // namespace
