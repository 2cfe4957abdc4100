// exec::BatchRunner: the batched entry point of the experiments.  The
// contract under test: results are aggregated per job, deterministic in
// (job, replica) regardless of thread count, identical to running the
// replicas one by one through run_simulation (for the mw backend) or
// hagerup::run (for the hagerup backend), a batch runs on the one
// backend its jobs name (a runner reused on another backend rebuilds
// its engines), and jobs on the wall-clock backend run in job order.
// Plus the grid seeding contract: BatchJob replica seeding is exactly
// seed + stride * r (unchanged), and sweep::derive_cell_seed gives grid
// layers decorrelated, collision-free per-cell seeds.

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/batch.hpp"
#include "pool/executor.hpp"
#include "hagerup/simulator.hpp"
#include "mw/simulation.hpp"
#include "sweep/grid.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

exec::BatchJob make_job(Kind kind, std::size_t workers, std::size_t tasks, std::size_t replicas,
                      std::uint64_t seed = 42, std::uint64_t stride = 7919) {
  exec::BatchJob job;
  job.config.technique = kind;
  job.config.workers = workers;
  job.config.tasks = tasks;
  job.config.workload = workload::exponential(1.0);
  job.config.params.mu = 1.0;
  job.config.params.sigma = 1.0;
  job.config.params.h = 0.5;
  job.config.seed = seed;
  job.replicas = replicas;
  job.seed_stride = stride;
  job.keep_values = true;
  return job;
}

TEST(BatchRunner, MatchesSequentialRuns) {
  const exec::BatchJob job = make_job(Kind::kFAC2, 4, 512, 8);
  const exec::BatchResult batched = exec::BatchRunner().run_one(job);

  ASSERT_EQ(batched.makespan_values.size(), 8u);
  for (std::size_t r = 0; r < 8; ++r) {
    mw::Config cfg = job.config;
    cfg.seed = job.config.seed + job.seed_stride * r;
    const mw::RunResult result = mw::run_simulation(cfg);
    EXPECT_DOUBLE_EQ(batched.makespan_values[r], result.makespan) << "replica " << r;
    EXPECT_DOUBLE_EQ(batched.wasted_values[r], result.avg_wasted_time) << "replica " << r;
  }
}

TEST(BatchRunner, IndependentOfThreadCount) {
  const exec::BatchJob jobs[] = {
      make_job(Kind::kGSS, 4, 256, 5),
      make_job(Kind::kSS, 2, 128, 3, /*seed=*/7),
      make_job(Kind::kBOLD, 8, 512, 4, /*seed=*/11),
  };
  auto run_with = [&](unsigned threads) {
    exec::BatchRunner::Options options;
    options.threads = threads;
      return exec::BatchRunner(options).run(jobs);
  };
  const auto a = run_with(1);
  const auto b = run_with(4);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(a[j].makespan_values, b[j].makespan_values) << "job " << j;
    EXPECT_EQ(a[j].wasted_values, b[j].wasted_values) << "job " << j;
    EXPECT_DOUBLE_EQ(a[j].makespan.mean, b[j].makespan.mean) << "job " << j;
  }
}

TEST(BatchRunner, AggregatesPerJob) {
  const exec::BatchJob jobs[] = {
      make_job(Kind::kSS, 2, 64, 10),
      make_job(Kind::kSS, 2, 64, 10),  // identical job -> identical summary
  };
  const auto results = exec::BatchRunner().run(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].makespan.count, 10u);
  EXPECT_DOUBLE_EQ(results[0].makespan.mean, results[1].makespan.mean);
  EXPECT_DOUBLE_EQ(results[0].avg_wasted_time.stddev, results[1].avg_wasted_time.stddev);
  // SS issues one chunk per task.
  EXPECT_DOUBLE_EQ(results[0].chunks.mean, 64.0);
  EXPECT_DOUBLE_EQ(results[0].chunks.stddev, 0.0);
}

TEST(BatchRunner, DropsValuesUnlessRequested) {
  exec::BatchJob job = make_job(Kind::kGSS, 2, 64, 3);
  job.keep_values = false;
  const exec::BatchResult r = exec::BatchRunner().run_one(job);
  EXPECT_TRUE(r.makespan_values.empty());
  EXPECT_TRUE(r.wasted_values.empty());
  EXPECT_EQ(r.makespan.count, 3u);
}

TEST(BatchRunner, RejectsZeroReplicaJobs) {
  // An all-zero Summary would render as a legitimate-looking makespan
  // of 0; the single entry point rejects the job instead.
  exec::BatchJob job = make_job(Kind::kSS, 2, 32, 0);
  EXPECT_THROW((void)exec::BatchRunner().run_one(job), std::invalid_argument);
}

TEST(BatchRunner, PropagatesSimulationErrors) {
  exec::BatchJob job = make_job(Kind::kSS, 2, 64, 4);
  job.config.worker_failure_times = {1.0, 2.0};  // all workers fail -> throws
  EXPECT_THROW((void)exec::BatchRunner().run_one(job), std::runtime_error);
}

TEST(BatchSeeding, SameSeedCellsReplayIdenticalReplicaSequences) {
  // The pre-derivation pitfall, pinned: two grid cells sharing a base
  // seed and the default seed_stride of 1 draw the *same* replica seed
  // sequence, so their "independent" noise is perfectly correlated.
  // Grid layers must therefore derive per-cell seeds (next tests);
  // BatchJob itself intentionally keeps the raw seed + stride * r rule.
  exec::BatchJob a = make_job(Kind::kFAC2, 4, 256, 6, /*seed=*/42, /*stride=*/1);
  exec::BatchJob b = a;  // a second cell of the same grid, same base seed
  const auto results = exec::BatchRunner().run(std::vector<exec::BatchJob>{a, b});
  EXPECT_EQ(results[0].makespan_values, results[1].makespan_values);
  EXPECT_EQ(results[0].wasted_values, results[1].wasted_values);
}

TEST(BatchSeeding, DeriveCellSeedIsDeterministicAndPinned) {
  // splitmix64 stream over the cell index, seeded by the base seed.
  // Pinned so the published sweep records stay replayable forever.
  EXPECT_EQ(sweep::derive_cell_seed(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(sweep::derive_cell_seed(42, 1), 0x28efe333b266f103ULL);
  EXPECT_EQ(sweep::derive_cell_seed(42, 2), 0x47526757130f9f52ULL);
  EXPECT_EQ(sweep::derive_cell_seed(1000003, 0), 0x5a0052b913b21d24ULL);
  // Deterministic: same inputs, same seed.
  EXPECT_EQ(sweep::derive_cell_seed(42, 1), sweep::derive_cell_seed(42, 1));
}

TEST(BatchSeeding, DerivedSeedsAreCollisionFreeAcrossAGrid) {
  // 10k-cell grid: all derived base seeds distinct, and far enough
  // apart that even 1000 replicas at stride 1 per cell cannot overlap
  // another cell's replica seed window.
  constexpr std::size_t kCells = 10000;
  constexpr std::uint64_t kReplicaWindow = 1000;
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kCells; ++i) seeds.insert(sweep::derive_cell_seed(42, i));
  ASSERT_EQ(seeds.size(), kCells);
  std::uint64_t prev = 0;
  bool first = true;
  for (const std::uint64_t s : seeds) {
    if (!first) {
      EXPECT_GT(s - prev, kReplicaWindow);
    }
    prev = s;
    first = false;
  }
}

TEST(BatchSeeding, SingleJobWithExplicitStrideIsUnchanged) {
  // The derivation lives in the grid layer only: a single job run
  // through BatchRunner with an explicit stride still seeds replica r
  // with exactly seed + stride * r, bit-identical to isolated runs.
  const exec::BatchJob job = make_job(Kind::kGSS, 4, 256, 5, /*seed=*/1234, /*stride=*/1000003);
  const exec::BatchResult batched = exec::BatchRunner().run_one(job);
  ASSERT_EQ(batched.makespan_values.size(), 5u);
  for (std::size_t r = 0; r < 5; ++r) {
    mw::Config cfg = job.config;
    cfg.seed = 1234 + 1000003 * r;
    EXPECT_DOUBLE_EQ(batched.makespan_values[r], mw::run_simulation(cfg).makespan)
        << "replica " << r;
  }
}

TEST(BatchRunner, ExternalExecutorAndRepeatedRunsAreDeterministic) {
  // An externally-owned pool (Options::executor) must give the same
  // results as the shared one, and consecutive run() calls on one
  // runner -- which reuse the per-slot backend caches and their warm
  // engines -- must reproduce the first call bitwise.
  pool::Executor executor(4);
  exec::BatchRunner::Options options;
  options.executor = &executor;
  const exec::BatchRunner runner(options);
  const std::vector<exec::BatchJob> jobs = {make_job(Kind::kGSS, 4, 256, 6),
                                            make_job(Kind::kBOLD, 8, 512, 5)};
  const auto first = runner.run(jobs);
  const auto second = runner.run(jobs);  // warm caches, same bytes
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t j = 0; j < first.size(); ++j) {
    EXPECT_EQ(first[j].makespan_values, second[j].makespan_values);
    EXPECT_EQ(first[j].wasted_values, second[j].wasted_values);
  }
  const auto shared_pool = exec::BatchRunner().run(jobs);
  for (std::size_t j = 0; j < first.size(); ++j) {
    EXPECT_EQ(first[j].makespan_values, shared_pool[j].makespan_values);
  }
}

TEST(BatchRunner, CompletionCallbackFiresOncePerJobWithFinalResults) {
  const std::vector<exec::BatchJob> jobs = {make_job(Kind::kSS, 2, 128, 3),
                                            make_job(Kind::kTSS, 4, 256, 4),
                                            make_job(Kind::kFAC2, 2, 128, 2)};
  exec::BatchRunner::Options options;
  options.threads = 4;
  std::mutex mutex;
  std::vector<int> calls(jobs.size(), 0);
  std::vector<exec::BatchResult> streamed(jobs.size());
  const auto results = exec::BatchRunner(options).run(
      jobs, [&](std::size_t j, const exec::BatchResult& r) {
        const std::scoped_lock lock(mutex);
        calls[j] += 1;
        streamed[j] = r;
      });
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(calls[j], 1) << "job " << j;
    EXPECT_EQ(streamed[j].makespan.mean, results[j].makespan.mean);
    EXPECT_EQ(streamed[j].makespan.count, jobs[j].replicas);
  }
}

TEST(BatchRunner, SerialRunsInvokeTheCallbackInJobOrder) {
  // threads = 1 is the streaming path dls_sweep's committer relies on
  // being already ordered: jobs complete strictly in index order.
  const std::vector<exec::BatchJob> jobs = {make_job(Kind::kSS, 2, 128, 2),
                                            make_job(Kind::kGSS, 2, 128, 2),
                                            make_job(Kind::kTSS, 2, 128, 2)};
  exec::BatchRunner::Options options;
  options.threads = 1;
  std::vector<std::size_t> order;
  (void)exec::BatchRunner(options).run(
      jobs, [&](std::size_t j, const exec::BatchResult&) { order.push_back(j); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BatchRunner, RuntimeBatchCompletesInJobOrderOnTheCallingThread) {
  // Wall-clock replicas never co-run: at any width a runtime batch runs
  // every replica in job order on the calling thread, so its jobs
  // complete in job order there and the sweep's in-order committer
  // never waits.
  std::vector<exec::BatchJob> jobs = {make_job(Kind::kSS, 2, 64, 2),
                                      make_job(Kind::kGSS, 2, 64, 3),
                                      make_job(Kind::kFAC2, 2, 64, 2)};
  for (exec::BatchJob& job : jobs) job.backend = "runtime";
  for (const unsigned threads : {1u, 3u}) {
    exec::BatchRunner::Options options;
    options.threads = threads;
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    std::vector<std::thread::id> completed_on;
    const auto results =
        exec::BatchRunner(options).run(jobs, [&](std::size_t j, const exec::BatchResult&) {
          order.push_back(j);
          completed_on.push_back(std::this_thread::get_id());
        });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2})) << threads << " threads";
    EXPECT_EQ(completed_on, std::vector<std::thread::id>(3, caller)) << threads << " threads";
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(results[j].makespan.count, jobs[j].replicas);
      for (const double v : results[j].makespan_values) EXPECT_GE(v, 0.0);
    }
  }
}

TEST(BatchRunner, RejectsJobsNamingDifferentBackends) {
  // A batch runs on one backend; a mixed batch is refused before any
  // replica runs, whichever job is the odd one out.
  exec::BatchJob hagerup_job = make_job(Kind::kFAC2, 4, 256, 3);
  hagerup_job.backend = "hagerup";
  const exec::BatchJob mw_job = make_job(Kind::kFAC2, 4, 256, 3);
  bool ran = false;
  const auto on_complete = [&](std::size_t, const exec::BatchResult&) { ran = true; };
  const exec::BatchRunner runner;
  EXPECT_THROW((void)runner.run(std::vector<exec::BatchJob>{mw_job, hagerup_job}, on_complete),
               std::invalid_argument);
  EXPECT_THROW(
      (void)runner.run(std::vector<exec::BatchJob>{hagerup_job, mw_job, mw_job}, on_complete),
      std::invalid_argument);
  EXPECT_FALSE(ran);
  // The refusal leaves the runner usable.
  EXPECT_EQ(runner.run_one(mw_job).makespan_values,
            exec::BatchRunner().run_one(mw_job).makespan_values);
}

TEST(BatchRunner, AReusedRunnerSwitchesBackends) {
  // mw, then hagerup, then mw again on one runner: each run rebuilds
  // the slot engines for its backend and matches a fresh runner.
  const std::vector<exec::BatchJob> mw_jobs = {make_job(Kind::kGSS, 4, 256, 5),
                                               make_job(Kind::kFAC2, 8, 512, 4)};
  const std::vector<exec::BatchJob> hagerup_jobs = [&] {
    std::vector<exec::BatchJob> jobs = mw_jobs;
    for (exec::BatchJob& job : jobs) job.backend = "hagerup";
    return jobs;
  }();
  exec::BatchRunner::Options options;
  options.threads = 3;
  const exec::BatchRunner reused(options);
  for (const auto* jobs : {&mw_jobs, &hagerup_jobs, &mw_jobs}) {
    const auto got = reused.run(*jobs);
    const auto fresh = exec::BatchRunner(options).run(*jobs);
    ASSERT_EQ(got.size(), fresh.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].makespan_values, fresh[j].makespan_values)
          << jobs->front().backend << " job " << j;
      EXPECT_EQ(got[j].wasted_values, fresh[j].wasted_values)
          << jobs->front().backend << " job " << j;
    }
  }
  // The two vehicles really differ on these cells, so a runner that
  // kept mw engines for the hagerup run would fail above.
  EXPECT_NE(reused.run(hagerup_jobs)[1].wasted_values,
            exec::BatchRunner(options).run(mw_jobs)[1].wasted_values);
}

TEST(BatchRunner, RejectsUnknownBackends) {
  exec::BatchJob job = make_job(Kind::kSS, 2, 32, 2);
  job.backend = "simgrid";  // not a vehicle of this repo
  EXPECT_THROW((void)exec::BatchRunner().run_one(job), std::invalid_argument);
}

TEST(BatchRunner, HagerupJobsMatchDirectHagerupRuns) {
  // A batch routed to the hagerup backend must reproduce, replica by
  // replica, what hagerup::run reports for the converted config.
  exec::BatchJob job = make_job(Kind::kGSS, 4, 512, 5, /*seed=*/321, /*stride=*/13);
  job.backend = "hagerup";
  const exec::BatchResult batched = exec::BatchRunner().run_one(job);
  ASSERT_EQ(batched.makespan_values.size(), 5u);
  for (std::size_t r = 0; r < 5; ++r) {
    hagerup::Config cfg;
    cfg.technique = job.config.technique;
    cfg.params = job.config.params;
    cfg.pes = job.config.workers;
    cfg.tasks = job.config.tasks;
    cfg.workload = job.config.workload;
    cfg.seed = job.config.seed + job.seed_stride * r;
    cfg.use_rand48 = job.config.use_rand48;
    cfg.charge_overhead_inline = false;
    const hagerup::RunResult result = hagerup::run(cfg);
    EXPECT_DOUBLE_EQ(batched.makespan_values[r], result.makespan) << "replica " << r;
    EXPECT_DOUBLE_EQ(batched.wasted_values[r], result.avg_wasted_time) << "replica " << r;
  }
}

TEST(BatchRunner, MixedWorkerCountsReuseContextsSafely) {
  // Alternating worker counts resize the per-thread contexts' worker
  // state mid-batch; results must still match isolated runs.
  const exec::BatchJob jobs[] = {
      make_job(Kind::kFAC2, 2, 128, 3),
      make_job(Kind::kFAC2, 8, 128, 3),
      make_job(Kind::kFAC2, 2, 128, 3),
  };
  exec::BatchRunner::Options options;
  options.threads = 1;  // one thread -> one context sees every worker count
  const auto results = exec::BatchRunner(options).run(jobs);
  EXPECT_EQ(results[0].makespan_values, results[2].makespan_values);
  for (std::size_t r = 0; r < 3; ++r) {
    mw::Config cfg = jobs[1].config;
    cfg.seed = cfg.seed + jobs[1].seed_stride * r;
    EXPECT_DOUBLE_EQ(results[1].makespan_values[r], mw::run_simulation(cfg).makespan);
  }
}

}  // namespace
