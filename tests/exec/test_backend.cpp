// exec::Backend: the factory contract, the per-backend validation
// rules, the measured-value semantics of each execution vehicle, and
// the context-reuse guarantee (consecutive runs on one instance are
// bitwise identical to fresh-instance runs for deterministic backends).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "bbn/machine_model.hpp"
#include "check/invariants.hpp"
#include "check/scenario.hpp"
#include "exec/backend.hpp"
#include "hagerup/simulator.hpp"
#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

mw::Config comparable_config(Kind kind, std::size_t workers, std::size_t tasks,
                             std::uint64_t seed = 42) {
  mw::Config cfg;
  cfg.technique = kind;
  cfg.workers = workers;
  cfg.tasks = tasks;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.latency = 0.0;
  cfg.bandwidth = std::numeric_limits<double>::infinity();
  cfg.seed = seed;
  return cfg;
}

TEST(BackendFactory, KnowsExactlyTheFourVehicles) {
  EXPECT_EQ(exec::backend_names(),
            (std::vector<std::string>{"bbn", "hagerup", "mw", "runtime"}));
  for (const std::string& name : exec::backend_names()) {
    EXPECT_TRUE(exec::is_backend_name(name));
    EXPECT_EQ(exec::make_backend(name)->name(), name);
  }
  EXPECT_FALSE(exec::is_backend_name("simgrid"));
  EXPECT_THROW((void)exec::make_backend("simgrid"), std::invalid_argument);
}

TEST(MwBackend, MeasureMatchesRunSimulationBitwise) {
  const mw::Config cfg = comparable_config(Kind::kFAC2, 4, 512);
  const exec::Measured m = exec::make_backend("mw")->measure(cfg);
  const mw::RunResult result = mw::run_simulation(cfg);
  EXPECT_EQ(m.makespan, result.makespan);
  EXPECT_EQ(m.avg_wasted_time, result.avg_wasted_time);
  EXPECT_EQ(m.speedup, result.total_nominal_work / result.makespan);
  EXPECT_EQ(m.chunks, static_cast<double>(result.chunk_count));
}

void expect_bitwise_equal(const exec::Measured& a, const exec::Measured& b,
                          const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.makespan), std::bit_cast<std::uint64_t>(b.makespan))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.avg_wasted_time),
            std::bit_cast<std::uint64_t>(b.avg_wasted_time))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.speedup), std::bit_cast<std::uint64_t>(b.speedup))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.chunks), std::bit_cast<std::uint64_t>(b.chunks))
      << what;
}

TEST(Backends, MeasureEqualsRunMeasured) {
  // Seeded points of the full Config space: mw takes every one, the
  // direct simulators the ones they can express.
  const auto mw = exec::make_backend("mw");
  const auto hagerup = exec::make_backend("hagerup");
  const auto bbn = exec::make_backend("bbn");
  bool simulated = false, network = false, factors = false, profiles = false, failures = false,
       timesteps = false;
  std::size_t direct = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const check::Scenario s = check::generate_scenario(/*seed=*/25, i);
    const mw::Config& cfg = s.config;
    const std::string what = "scenario " + std::to_string(i) + "\n" + check::to_experiment_text(s);
    simulated |= cfg.overhead_mode == mw::OverheadMode::kSimulated;
    network |= !s.null_network;
    factors |= !cfg.worker_speed_factors.empty();
    profiles |= !cfg.worker_speed_profiles.empty();
    failures |= s.has_failures;
    timesteps |= cfg.timesteps > 1;
    expect_bitwise_equal(mw->measure(cfg), mw->run(cfg).measured, "mw " + what);
    if (!s.hagerup_comparable()) continue;
    ++direct;
    expect_bitwise_equal(hagerup->measure(cfg), hagerup->run(cfg).measured, "hagerup " + what);
    if (!cfg.use_rand48) {
      expect_bitwise_equal(bbn->measure(cfg), bbn->run(cfg).measured, "bbn " + what);
    }
  }
  EXPECT_TRUE(simulated && network && factors && profiles && failures && timesteps);
  EXPECT_GT(direct, 20u);
  // And wider cells, where bbn's dispatch hold shapes the run.
  for (Kind kind : {Kind::kSS, Kind::kCSS, Kind::kGSS, Kind::kTSS}) {
    const mw::Config cfg = comparable_config(kind, 24, 5000, /*seed=*/7);
    expect_bitwise_equal(bbn->measure(cfg), bbn->run(cfg).measured, dls::to_string(kind));
    expect_bitwise_equal(hagerup->measure(cfg), hagerup->run(cfg).measured,
                         dls::to_string(kind));
  }
}

TEST(MwBackend, ContextReuseIsBitwiseDeterministic) {
  const mw::Config cfg = comparable_config(Kind::kGSS, 6, 1024);
  const auto backend = exec::make_backend("mw");
  const exec::Measured first = backend->measure(cfg);
  const exec::Measured again = backend->measure(cfg);  // reused engine/buffers
  EXPECT_EQ(first.makespan, again.makespan);
  EXPECT_EQ(first.avg_wasted_time, again.avg_wasted_time);
  const exec::BackendRun run = backend->run(cfg);  // and the full record path
  EXPECT_EQ(run.makespan, first.makespan);
  EXPECT_EQ(run.measured.avg_wasted_time, first.avg_wasted_time);
}

TEST(HagerupBackend, AgreesWithMwOnComparableConfigs) {
  // The paper's theorem regime: null network, analytic overhead,
  // homogeneous, non-adaptive -> bitwise-identical chunk sequences.
  for (Kind kind : {Kind::kSS, Kind::kGSS, Kind::kTSS, Kind::kFAC2}) {
    const mw::Config cfg = comparable_config(kind, 8, 1024);
    const exec::BackendRun mw_run = exec::make_backend("mw")->run(cfg);
    const exec::BackendRun hagerup_run = exec::make_backend("hagerup")->run(cfg);
    ASSERT_EQ(mw_run.chunk_log.size(), hagerup_run.chunk_log.size()) << dls::to_string(kind);
    for (std::size_t c = 0; c < mw_run.chunk_log.size(); ++c) {
      ASSERT_EQ(mw_run.chunk_log[c].first, hagerup_run.chunk_log[c].first);
      ASSERT_EQ(mw_run.chunk_log[c].size, hagerup_run.chunk_log[c].size);
    }
    EXPECT_NEAR(mw_run.makespan, hagerup_run.makespan, 1e-6 * mw_run.makespan);
  }
}

TEST(HagerupBackend, MeasureReportsTheAnalyticAccounting) {
  const mw::Config cfg = comparable_config(Kind::kGSS, 4, 512);
  const auto backend = exec::make_backend("hagerup");
  const exec::Measured m = backend->measure(cfg);
  const exec::BackendRun run = backend->run(cfg);
  EXPECT_EQ(m.makespan, run.makespan);
  EXPECT_EQ(m.chunks, static_cast<double>(run.chunk_count));
  // speedup = total nominal work / makespan, mw's definition.
  EXPECT_DOUBLE_EQ(m.speedup, run.total_nominal_work / run.makespan);
  // Context reuse stays bitwise deterministic.
  const exec::Measured again = backend->measure(cfg);
  EXPECT_EQ(m.makespan, again.makespan);
  EXPECT_EQ(m.avg_wasted_time, again.avg_wasted_time);
}

TEST(HagerupBackend, RejectsWhatTheDirectSimulatorCannotExpress) {
  const auto backend = exec::make_backend("hagerup");
  mw::Config cfg = comparable_config(Kind::kSS, 2, 64);
  EXPECT_NO_THROW(backend->validate(cfg));

  mw::Config timesteps = cfg;
  timesteps.timesteps = 3;
  EXPECT_THROW(backend->validate(timesteps), std::invalid_argument);

  mw::Config heterogeneous = cfg;
  heterogeneous.worker_speed_factors = {1.0, 0.5};
  EXPECT_THROW(backend->validate(heterogeneous), std::invalid_argument);

  mw::Config failures = cfg;
  failures.worker_failure_times = {std::numeric_limits<double>::infinity(), 3.0};
  EXPECT_THROW(backend->validate(failures), std::invalid_argument);

  // All-infinity failure lists are failure-free and fine.
  mw::Config survivors = cfg;
  survivors.worker_failure_times.assign(2, std::numeric_limits<double>::infinity());
  EXPECT_NO_THROW(backend->validate(survivors));

  mw::Config simulated = cfg;
  simulated.overhead_mode = mw::OverheadMode::kSimulated;
  EXPECT_THROW(backend->validate(simulated), std::invalid_argument);

  // A modeled network must be rejected (the direct simulator has
  // none; silently dropping it would mislabel the comparison), while
  // the exact-null and BOLD near-null regimes pass.
  mw::Config networked = cfg;
  networked.latency = 2e-6;
  networked.bandwidth = 1e8;
  EXPECT_THROW(backend->validate(networked), std::invalid_argument);
  mw::Config near_null = cfg;
  near_null.latency = 1e-12;  // mw::Config's defaults
  near_null.bandwidth = 1e21;
  EXPECT_NO_THROW(backend->validate(near_null));
}

TEST(HagerupBackend, InlineOverheadIsTheSimulatorsInlineAccounting) {
  // `overhead inline` selects the BOLD publication's accounting: h on
  // the requesting worker's timeline, bit for bit hagerup::run's.
  mw::Config cfg = comparable_config(Kind::kFAC2, 8, 2048);
  cfg.use_rand48 = true;
  cfg.overhead_mode = mw::OverheadMode::kInline;
  hagerup::Config direct;
  direct.technique = cfg.technique;
  direct.params = cfg.params;
  direct.pes = cfg.workers;
  direct.tasks = cfg.tasks;
  direct.workload = cfg.workload;
  direct.seed = cfg.seed;
  direct.charge_overhead_inline = true;
  const hagerup::RunResult expected = hagerup::run(direct);
  const exec::Measured m = exec::make_backend("hagerup")->measure(cfg);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.makespan), std::bit_cast<std::uint64_t>(expected.makespan));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.avg_wasted_time),
            std::bit_cast<std::uint64_t>(expected.avg_wasted_time));
  EXPECT_EQ(m.chunks, static_cast<double>(expected.chunk_count));
  // Inline h lengthens the run; the analytic default adds it afterwards.
  mw::Config analytic = cfg;
  analytic.overhead_mode = mw::OverheadMode::kAnalytic;
  EXPECT_GT(m.makespan, exec::make_backend("hagerup")->measure(analytic).makespan);

  // Only the direct simulator has a worker timeline to charge.
  mw::Config xoshiro = cfg;
  xoshiro.use_rand48 = false;
  EXPECT_THROW(exec::make_backend("bbn")->validate(xoshiro), std::invalid_argument);
  EXPECT_THROW((void)exec::make_backend("mw")->measure(cfg), std::invalid_argument);
}

/// A Figure 3 cell: constant 110 us tasks on the BBN machine model.
mw::Config bbn_config(Kind kind, std::size_t workers) {
  mw::Config cfg;
  cfg.technique = kind;
  cfg.workers = workers;
  cfg.tasks = 5000;
  cfg.workload = workload::constant(110e-6);
  cfg.params.gss_min_chunk = kind == Kind::kGSS ? 80 : 1;
  return cfg;
}

TEST(BbnBackend, MeasureEqualsTheMachineModelFieldForField) {
  for (Kind kind : {Kind::kSS, Kind::kCSS, Kind::kGSS, Kind::kTSS}) {
    const mw::Config cfg = bbn_config(kind, 24);
    const exec::Measured m = exec::make_backend("bbn")->measure(cfg);
    hagerup::Config direct;
    direct.technique = kind;
    direct.params = cfg.params;
    direct.pes = cfg.workers;
    direct.tasks = cfg.tasks;
    direct.workload = cfg.workload;
    direct.seed = cfg.seed;
    const hagerup::RunResult result = hagerup::run(bbn::on_machine(direct));
    EXPECT_EQ(m.makespan, result.makespan) << dls::to_string(kind);
    EXPECT_EQ(m.speedup, bbn::tzen_ni(result).speedup) << dls::to_string(kind);  // as computed
    EXPECT_EQ(m.chunks, static_cast<double>(result.chunk_count)) << dls::to_string(kind);
    double wasted = 0.0;
    for (const double x : result.compute_time) wasted += result.makespan - x;
    EXPECT_EQ(m.avg_wasted_time, wasted / 24.0) << dls::to_string(kind);
  }
}

TEST(BbnBackend, RunPassesTheStructuralInvariants) {
  const auto backend = exec::make_backend("bbn");
  for (Kind kind : {Kind::kSS, Kind::kCSS, Kind::kGSS, Kind::kTSS}) {
    const mw::Config cfg = bbn_config(kind, 8);
    const exec::BackendRun run = backend->run(cfg);
    EXPECT_EQ(run.backend, "bbn");
    EXPECT_EQ(run.chunk_log.size(), run.chunk_count) << dls::to_string(kind);
    EXPECT_EQ(check::check_coverage(run), std::nullopt) << dls::to_string(kind);
    EXPECT_EQ(check::check_conservation(run), std::nullopt) << dls::to_string(kind);
    EXPECT_EQ(check::check_chunk_bounds(run), std::nullopt) << dls::to_string(kind);
    // The full record path measures the same run.
    EXPECT_EQ(run.makespan, backend->measure(cfg).makespan) << dls::to_string(kind);
  }
}

TEST(BbnBackend, RejectsWhatTheMachineModelCannotExpress) {
  const auto backend = exec::make_backend("bbn");
  const mw::Config cfg = bbn_config(Kind::kSS, 2);
  EXPECT_NO_THROW(backend->validate(cfg));

  mw::Config timesteps = cfg;
  timesteps.timesteps = 3;
  EXPECT_THROW(backend->validate(timesteps), std::invalid_argument);

  mw::Config heterogeneous = cfg;
  heterogeneous.worker_speed_factors = {1.0, 0.5};
  EXPECT_THROW(backend->validate(heterogeneous), std::invalid_argument);

  mw::Config profiled = cfg;
  profiled.worker_speed_profiles = {simx::SpeedProfile{{0.0}, {1e9}},
                                    simx::SpeedProfile{{0.0}, {1e9}}};
  EXPECT_THROW(backend->validate(profiled), std::invalid_argument);

  mw::Config failures = cfg;
  failures.worker_failure_times = {std::numeric_limits<double>::infinity(), 3.0};
  EXPECT_THROW(backend->validate(failures), std::invalid_argument);

  mw::Config simulated = cfg;
  simulated.overhead_mode = mw::OverheadMode::kSimulated;
  EXPECT_THROW(backend->validate(simulated), std::invalid_argument);

  mw::Config networked = cfg;
  networked.latency = 2e-6;
  networked.bandwidth = 1e8;
  EXPECT_THROW(backend->validate(networked), std::invalid_argument);

  // Its task times come from xoshiro only.
  mw::Config rand48 = cfg;
  rand48.use_rand48 = true;
  EXPECT_THROW(backend->validate(rand48), std::invalid_argument);
  EXPECT_THROW((void)backend->measure(rand48), std::invalid_argument);
}

TEST(RuntimeBackend, CapsTasksAndThreadsPerOptions) {
  exec::BackendOptions options;
  options.runtime_task_cap = 100;
  options.runtime_max_threads = 2;
  mw::Config cfg = comparable_config(Kind::kSS, 16, 5000);
  const exec::BackendRun run = exec::make_backend("runtime", options)->run(cfg);
  EXPECT_EQ(run.backend, "runtime");
  EXPECT_EQ(run.tasks, 100u);
  EXPECT_EQ(run.workers, 2u);
  EXPECT_FALSE(run.virtual_time);
  std::size_t completed = 0;
  for (const mw::WorkerStats& w : run.worker_stats) completed += w.tasks;
  EXPECT_EQ(completed, 100u);
}

TEST(RuntimeBackend, RunsEveryTimestepAndCoversEachOne) {
  exec::BackendOptions options;
  options.runtime_max_threads = 4;
  mw::Config cfg = comparable_config(Kind::kFAC2, 4, 600);
  cfg.timesteps = 3;
  const exec::BackendRun run = exec::make_backend("runtime", options)->run(cfg);
  EXPECT_EQ(run.timesteps, 3u);
  std::size_t completed = 0;
  for (const mw::WorkerStats& w : run.worker_stats) completed += w.tasks;
  EXPECT_EQ(completed, 600u * 3u);  // conservation across steps
  std::size_t served = 0;
  for (const mw::ChunkLogEntry& chunk : run.chunk_log) served += chunk.size;
  EXPECT_EQ(served, 600u * 3u);
}

TEST(RuntimeBackend, ChangedParamsRebuildTheExecutor) {
  // One backend instance caches its executor; a changed Params field
  // (here css_chunk) must rebuild it instead of reusing stale chunking.
  exec::BackendOptions options;
  options.runtime_max_threads = 2;
  mw::Config cfg = comparable_config(Kind::kCSS, 2, 1000);
  cfg.params.css_chunk = 16;
  const auto backend = exec::make_backend("runtime", options);
  const exec::BackendRun first = backend->run(cfg);
  ASSERT_FALSE(first.chunk_log.empty());
  EXPECT_EQ(first.chunk_log.front().size, 16u);
  cfg.params.css_chunk = 64;
  const exec::BackendRun second = backend->run(cfg);
  ASSERT_EQ(second.chunk_log.size(), 16u);  // 15 of 64 and the last 40
  for (std::size_t c = 0; c + 1 < second.chunk_log.size(); ++c) {
    EXPECT_EQ(second.chunk_log[c].size, 64u) << "chunk " << c;
  }
  EXPECT_EQ(second.chunk_log.back().size, 1000u - 15u * 64u);
}

TEST(RuntimeBackend, ReplicasDoNotLeakAdaptiveStateAcrossRuns) {
  // AWF-B adapts weights from timing feedback; a reused executor must
  // reset between independent replicas, so every run() issues the same
  // *first* chunk a fresh executor would (later chunks are wall-clock
  // sensitive and may differ).
  exec::BackendOptions options;
  options.runtime_max_threads = 2;
  mw::Config cfg = comparable_config(Kind::kAWFB, 2, 400);
  const auto backend = exec::make_backend("runtime", options);
  const exec::BackendRun first = backend->run(cfg);
  const exec::BackendRun second = backend->run(cfg);
  ASSERT_FALSE(first.chunk_log.empty());
  ASSERT_FALSE(second.chunk_log.empty());
  EXPECT_EQ(first.chunk_log.front().size, second.chunk_log.front().size);
  EXPECT_EQ(first.chunk_log.front().first, second.chunk_log.front().first);
}

}  // namespace
