#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hagerup/simulator.hpp"
#include "mw/config.hpp"
#include "mw/metrics.hpp"
#include "mw/result.hpp"

namespace exec {

/// Uniform view of one run of any execution vehicle -- the shared
/// currency of the check invariant catalog and the cross-backend
/// experiment grids.  Chunk/range logs reuse the mw log types;
/// backends without fragmentation (bbn, hagerup, runtime) emit one
/// range per chunk.
struct BackendRun {
  std::string backend;  ///< one of backend_names()
  std::size_t tasks = 0;
  std::size_t timesteps = 1;
  std::size_t workers = 0;
  double makespan = 0.0;
  double total_nominal_work = 0.0;
  std::size_t chunk_count = 0;
  std::size_t tasks_reclaimed = 0;
  std::vector<mw::WorkerStats> worker_stats;
  std::vector<mw::ChunkLogEntry> chunk_log;
  std::vector<mw::ServedRangeEntry> range_log;
  /// Paper metrics, for backends that define them (mw only).
  std::optional<mw::Metrics> metrics;
  /// Virtual-time semantics: chunk issue times and compute times are
  /// exact simulated values (false for the native runtime, whose
  /// wall-clock numbers only support structural invariants).
  bool virtual_time = true;
};

/// The measured values every backend reports -- the per-replica
/// currency of exec::BatchRunner and the sweep records (the summary
/// columns of the reproduced experiments).
struct Measured {
  double makespan = 0.0;
  double avg_wasted_time = 0.0;
  double speedup = 0.0;
  double chunks = 0.0;
};

/// One execution vehicle behind a uniform mw::Config-shaped job spec.
///
/// A Backend instance owns per-backend reusable state (mw::RunContext,
/// hagerup::RunContext, a cached runtime executor), so consecutive
/// runs on the same instance reuse engines and buffers instead of
/// reallocating them.  Instances are NOT thread-safe: use one per
/// thread (exec::BatchRunner keeps a pool).
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Throws std::invalid_argument naming what the backend cannot
  /// faithfully express of `config` (e.g. hagerup with timesteps > 1).
  /// run()/measure() validate implicitly.
  virtual void validate(const mw::Config& config) const = 0;

  /// Full uniform record, chunk/range logs forced on -- the check
  /// catalog's input.
  [[nodiscard]] virtual BackendRun run(const mw::Config& config) = 0;

  /// The measured values only, without materializing logs -- the
  /// batch/sweep hot path.  For mw this is exactly
  /// run_simulation + compute_metrics on a reused RunContext.
  [[nodiscard]] virtual Measured measure(const mw::Config& config) = 0;

  /// Makespans/chunk times are exact simulated values, and the same
  /// config always reproduces bitwise-identical results (false for the
  /// native runtime, which measures wall clock: it still sweeps and
  /// resumes correctly, but its records are not byte-reproducible).
  [[nodiscard]] virtual bool virtual_time() const = 0;
};

/// Construction knobs that only apply to specific backends.
struct BackendOptions {
  /// runtime: cap the executed iteration count (0 = run the full n).
  /// check's fuzzer caps at 2048 to keep native runs fast.
  std::size_t runtime_task_cap = 0;
  /// runtime: cap the spawned thread count (0 = exactly `workers`).
  unsigned runtime_max_threads = 0;
};

/// The known backend names, in canonical (lexicographic) order:
/// "bbn", "hagerup", "mw", "runtime".
[[nodiscard]] const std::vector<std::string>& backend_names();
[[nodiscard]] bool is_backend_name(std::string_view name);

/// Factory.  Throws std::invalid_argument listing the known names for
/// an unknown `name`.
[[nodiscard]] std::unique_ptr<Backend> make_backend(std::string_view name,
                                                    const BackendOptions& options = {});

/// Whether the named backend has virtual-time semantics
/// (Backend::virtual_time()).  The single classification both
/// exec::BatchRunner (which defers wall-clock jobs to a serial phase)
/// and sweep::SweepRunner (which segments its worklist at wall-clock
/// cells) key off -- they must never diverge, or the sweep's in-order
/// committer stalls buffering behind a job the batch deferred.
[[nodiscard]] bool backend_is_virtual(std::string_view name, const BackendOptions& options = {});

/// Adapters from the native result types (used by the backends, the
/// check tests, and anyone holding a raw simulator result).
[[nodiscard]] BackendRun from_mw(const mw::Config& config, mw::RunResult result);
[[nodiscard]] BackendRun from_hagerup(const hagerup::Config& config,
                                      const hagerup::RunResult& result);

}  // namespace exec
