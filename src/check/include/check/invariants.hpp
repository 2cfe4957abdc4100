#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "check/scenario.hpp"

namespace check {

/// One violated invariant.  `invariant` is the catalog name (stable:
/// tests and reports key off it), `message` the human-readable account.
struct Failure {
  std::string invariant;
  std::string message;
};

/// The machine-checkable invariant catalog.  Each function returns
/// std::nullopt when the invariant holds -- including vacuously, when
/// the scenario/run does not meet the invariant's preconditions (each
/// documents its own).
///
/// Structural invariants on a single backend run:

/// "chunk_bounds": every chunk has size >= 1 and lies inside [0, n);
/// its ranges are in-bounds, non-empty, and sum to the chunk size;
/// chunk_count equals the log length.
[[nodiscard]] std::optional<std::string> check_chunk_bounds(const exec::BackendRun& run);

/// "coverage": failure-free runs only -- walking the chunk log in
/// issue order, each timestep's served ranges exactly partition [0, n):
/// no overlap, no gap, no spill into the next step.
[[nodiscard]] std::optional<std::string> check_coverage(const exec::BackendRun& run);

/// "conservation": tasks are conserved under failures -- completed
/// tasks sum to n * timesteps, served tasks sum to n * timesteps +
/// reclaimed, and per-worker chunk counts sum to chunk_count.
[[nodiscard]] std::optional<std::string> check_conservation(const exec::BackendRun& run);

/// "work_seconds": failure-free virtual-time runs -- every chunk's
/// logged aggregate nominal time matches the value recomputed from the
/// regenerated workload (same seed, same generator chain).
[[nodiscard]] std::optional<std::string> check_work_seconds(const Scenario& scenario,
                                                            const exec::BackendRun& run);

/// "makespan_bounds": profile-free virtual-time runs -- the makespan
/// respects the perfect-sharing bound (total nominal work over total
/// speed capacity) and the critical-path bound (the largest single task
/// on the fastest worker).
[[nodiscard]] std::optional<std::string> check_makespan_bounds(const Scenario& scenario,
                                                               const exec::BackendRun& run);

/// "metrics_identity": mw runs -- the derived Metrics are recomputable:
/// speedup * makespan = total work, slowness = p / speedup, avg wasted
/// time and cov re-derive from the per-worker stats, and (failure-free)
/// per-worker served tasks re-derive from the chunk log.
[[nodiscard]] std::optional<std::string> check_metrics_identity(const Scenario& scenario,
                                                                const exec::BackendRun& run);

/// Cross-backend and cross-execution invariants:

/// "cross_backend": hagerup-comparable scenarios -- mw and hagerup
/// issue the same number of chunks and agree on the makespan; for
/// hagerup_identical() scenarios the (first, size) chunk sequences are
/// bitwise identical.
[[nodiscard]] std::optional<std::string> check_cross_backend(const Scenario& scenario,
                                                             const exec::BackendRun& mw_run,
                                                             const exec::BackendRun& hagerup_run);

/// "mw_determinism": the same scenario re-run through a fresh context
/// and through a reused RunContext produces a bitwise-identical
/// makespan and chunk log.  Runs the simulation twice.
[[nodiscard]] std::optional<std::string> check_mw_determinism(const Scenario& scenario,
                                                              const exec::BackendRun& mw_run);

/// "batch_determinism": exec::BatchRunner mw summaries over `replicas` are
/// bitwise identical with 1 and with several worker threads.  Runs
/// 2 * replicas simulations.
[[nodiscard]] std::optional<std::string> check_batch_determinism(const Scenario& scenario,
                                                                 std::size_t replicas = 4);

/// "worker_monotonicity": constant-workload, null-network, analytic,
/// homogeneous, failure-free scenarios with a non-timing-sensitive,
/// non-randomized technique -- doubling the worker count never worsens
/// the makespan.  Runs two simulations.
[[nodiscard]] std::optional<std::string> check_worker_monotonicity(const Scenario& scenario);

/// All invariants applicable to one already-executed backend run (the
/// structural block above).  Tests inject violations by mutating `run`
/// and asserting the catalog catches them.
[[nodiscard]] std::vector<Failure> check_run(const Scenario& scenario, const exec::BackendRun& run);

}  // namespace check
