#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "mw/config.hpp"
#include "pool/executor.hpp"
#include "stats/summary.hpp"

namespace exec {

/// One configuration of a batch: `replicas` independent runs of
/// `config` on the named execution backend, where replica r runs with
/// seed `config.seed + seed_stride * r`.  This is the repetition
/// dimension of every reproduced experiment (e.g. 1000 runs per cell in
/// the BOLD study, paper Section III-B).
struct BatchJob {
  mw::Config config;
  std::size_t replicas = 1;
  std::uint64_t seed_stride = 1;
  /// Execution vehicle: any exec::backend_names() entry ("mw" is the
  /// reference simulator); the jobs of one batch all name the same one.
  /// The runtime backend ignores the seed (real threads, wall clock),
  /// so its replicas measure run-to-run noise.
  std::string backend = "mw";
  /// Retain the per-replica series in the result (a spec's `series
  /// true`: the raw material of distribution plots like paper Figure 9).
  bool keep_values = false;
};

/// Aggregated outcome of one BatchJob: summary statistics of the
/// paper's measured values over the job's replicas.
struct BatchResult {
  stats::Summary makespan;
  stats::Summary avg_wasted_time;
  stats::Summary speedup;
  stats::Summary chunks;
  /// Per-replica series, in replica order, retained only with
  /// BatchJob::keep_values.
  std::vector<double> makespan_values;
  std::vector<double> wasted_values;
};

/// Batched experiment runner -- the single entry point the sweep
/// runner, tools and benches route "run this grid of
/// configurations N times each" through.
///
/// A batch runs on ONE backend: every job names the same
/// BatchJob::backend (run() throws otherwise).  On a virtual-time
/// backend the replicas of all jobs are flattened into one index space
/// and claimed from a persistent pool::Executor (an external one via
/// Options::executor, else the process-wide shared pool -- no per-call
/// thread spawn).  A wall-clock backend (runtime) runs every replica in
/// job order on the calling thread instead: each replica spawns its own
/// worker threads and its timings ARE the measurement, so co-running
/// replicas would measure contention, not run-to-run noise.
///
/// Every executor slot keeps one exec::Backend, and those caches live
/// for the runner's lifetime: consecutive run() calls (e.g. the
/// consecutive windows of a sweep) reuse the backend's engines and
/// buffers (mw::RunContext, hagerup::RunContext, the cached runtime
/// executor) instead of reallocating them.  A run() on another backend
/// than the last one rebuilds the caches.  Results are deterministic
/// for virtual-time backends: each replica is seeded purely by (job,
/// replica index), independent of thread scheduling.
///
/// A BatchRunner is NOT thread-safe: one run() at a time per instance
/// (the slot caches assume a single driving thread per region).
class BatchRunner {
 public:
  struct Options {
    unsigned threads = 0;  ///< 0 = the executor's width
    /// Externally-owned executor to run on (must outlive the runner);
    /// nullptr = pool::Executor::shared().
    pool::Executor* executor = nullptr;
  };

  BatchRunner() = default;
  explicit BatchRunner(Options options) : options_(options) {}

  [[nodiscard]] const Options& options() const { return options_; }

  /// Invoked as each job completes (all of its replicas done), from
  /// whichever thread finished the job's last replica -- jobs within a
  /// pool region complete in unspecified order, so an on_complete that
  /// writes output must order (and lock) itself; see
  /// sweep::SweepRunner's in-order committer.  Throwing from the
  /// callback cancels the batch and rethrows on the calling thread,
  /// like a throwing replica.
  using JobCallback = std::function<void(std::size_t job, const BatchResult& result)>;

  /// Run all jobs; result i aggregates jobs[i].  Throws
  /// std::invalid_argument for zero-replica jobs, an unknown backend
  /// and jobs naming different backends, before running anything.
  [[nodiscard]] std::vector<BatchResult> run(std::span<const BatchJob> jobs,
                                             const JobCallback& on_complete = {}) const;
  /// Convenience for a single job.
  [[nodiscard]] BatchResult run_one(const BatchJob& job) const;

 private:
  Options options_;
  /// Per-slot Backend instances of the last run's backend (slot 0's
  /// name() says which); slot s is only ever touched by the executor
  /// participant holding slot ID s, so no lock is needed.  mutable: the
  /// caches are perf state, not results -- run() stays const for the
  /// many `const BatchRunner` call sites.
  mutable std::vector<std::unique_ptr<Backend>> slots_;
};

}  // namespace exec
