#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mw/config.hpp"
#include "mw/result.hpp"

namespace exec {

/// The measured values of the reproduced experiments (paper Figure 2:
/// "Execution Information: Measured Value(s)") -- what every backend
/// reports per run, the per-replica currency of exec::BatchRunner and
/// the summary columns of the sweep records.
struct Measured {
  /// Makespan (total simulated time; wall clock for runtime) [s].
  double makespan = 0.0;
  /// Average wasted time of the run (paper Sections III-B/IV-B): the
  /// wasted time of a worker is the overall simulation time minus its
  /// computation time; the average over workers is taken, and -- under
  /// analytic overhead accounting -- h times the number of scheduling
  /// operations is added (divided across workers, matching the
  /// per-worker overhead accounting of the BOLD publication).  bbn
  /// charges its dispatch cost on the timeline and adds no h term.
  double avg_wasted_time = 0.0;
  /// Speedup r = L*P/(X+O+W) of the TSS publication, which with
  /// Sum(X+O+W) = P*makespan reduces to total work / makespan (runtime:
  /// busy time / makespan).
  double speedup = 0.0;
  /// Number of scheduling operations (chunks).
  double chunks = 0.0;
};

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
  /// This run's measured values, from the same function as
  /// Backend::measure().
  Measured measured;
  /// Virtual-time semantics: chunk issue times and compute times are
  /// exact simulated values (false for the native runtime, whose
  /// wall-clock numbers only support structural invariants).
  bool virtual_time = true;
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
  /// batch/sweep hot path.  Bitwise equal to run(config).measured on
  /// virtual-time backends.
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
/// "unknown backend '<name>' (known: bbn | hagerup | mw | runtime)".
[[nodiscard]] std::string unknown_backend_message(std::string_view name);

/// Factory.  Throws std::invalid_argument listing the known names for
/// an unknown `name`.
[[nodiscard]] std::unique_ptr<Backend> make_backend(std::string_view name,
                                                    const BackendOptions& options = {});

}  // namespace exec
