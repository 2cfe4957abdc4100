#pragma once

#include <cstdint>
#include <functional>
#include <map>
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
/// the BOLD study, paper Section III-B), now crossed with the paper's
/// execution-vehicle dimension.
struct BatchJob {
  mw::Config config;
  std::size_t replicas = 1;
  std::uint64_t seed_stride = 1;
  /// Execution vehicle: any exec::backend_names() entry ("mw" is the
  /// reference simulator).  The runtime backend ignores the seed (real
  /// threads, wall clock), so its replicas measure run-to-run noise.
  std::string backend = "mw";
};

/// Aggregated outcome of one BatchJob: summary statistics of the
/// paper's measured values over the job's replicas.
struct BatchResult {
  stats::Summary makespan;
  stats::Summary avg_wasted_time;
  stats::Summary speedup;
  stats::Summary chunks;
  /// Per-replica series, retained only with Options::keep_values (the
  /// raw material of distribution plots like paper Figure 9).
  std::vector<double> makespan_values;
  std::vector<double> wasted_values;
};

/// Batched experiment runner -- the single entry point the sweep
/// runner, tools and benches route "run this grid of
/// configurations N times each" through.
///
/// The replicas of all virtual-time jobs are flattened into one index
/// space and claimed from a persistent pool::Executor (an external one
/// via Options::executor, else the process-wide shared pool -- no
/// per-call thread spawn).  Every executor slot keeps one
/// exec::Backend *per backend name*, and those caches live for the
/// runner's lifetime: consecutive run() calls (e.g. the consecutive
/// cells of a sweep) reuse the backends' engines and buffers
/// (mw::RunContext, hagerup::RunContext, the cached runtime executor)
/// instead of reallocating them.  Wall-clock jobs (runtime) are
/// excluded from the pool and run one replica at a time -- each replica
/// spawns its own worker threads and its timings ARE the measurement,
/// so co-running replicas would measure contention, not run-to-run
/// noise.  Results are deterministic for deterministic backends: each
/// replica is seeded purely by (job, replica index), independent of
/// thread scheduling.
///
/// A BatchRunner is NOT thread-safe: one run() at a time per instance
/// (the slot caches assume a single driving thread per region).
class BatchRunner {
 public:
  struct Options {
    unsigned threads = 0;      ///< 0 = the executor's width
    std::size_t grain = 1;     ///< replicas claimed per atomic grab
    bool keep_values = false;  ///< retain per-replica series in the results
    BackendOptions backend;    ///< backend construction knobs
    /// Externally-owned executor to run on (must outlive the runner);
    /// nullptr = pool::Executor::shared().
    pool::Executor* executor = nullptr;
  };

  BatchRunner() = default;
  explicit BatchRunner(Options options) : options_(std::move(options)) {}

  [[nodiscard]] const Options& options() const { return options_; }

  /// Invoked as each job completes (all of its replicas done), from
  /// whichever thread finished the job's last replica -- jobs complete
  /// in unspecified order, so an on_complete that writes output must
  /// order (and lock) itself; see sweep::SweepRunner's in-order
  /// committer.  Throwing from the callback cancels the batch and
  /// rethrows on the calling thread, like a throwing replica.
  using JobCallback = std::function<void(std::size_t job, const BatchResult& result)>;

  /// Run all jobs; result i aggregates jobs[i].  Throws
  /// std::invalid_argument for zero-replica jobs and unknown backends
  /// before running anything.
  [[nodiscard]] std::vector<BatchResult> run(std::span<const BatchJob> jobs,
                                             const JobCallback& on_complete = {}) const;
  /// Convenience for a single job.
  [[nodiscard]] BatchResult run_one(const BatchJob& job) const;

 private:
  [[nodiscard]] Backend& slot_backend(unsigned slot, const std::string& name) const;

  Options options_;
  /// Per-slot Backend instances, keyed by backend name; slot s is only
  /// ever touched by the executor participant holding slot ID s, so no
  /// lock is needed.  mutable: the caches are perf state, not results
  /// -- run() stays const for the many `const BatchRunner` call sites.
  mutable std::vector<std::map<std::string, std::unique_ptr<Backend>, std::less<>>> slots_;
};

}  // namespace exec
