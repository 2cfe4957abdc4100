#pragma once

#include <cstddef>

#include "check/scenario.hpp"
#include "exec/backend.hpp"

namespace check {

/// The uniform run record and the per-backend adapters live in the
/// execution layer (exec/backend.hpp) since they became first-class
/// citizens of the experiment grids; check consumes them as the
/// currency of its invariant catalog.
using BackendRun = exec::BackendRun;
using exec::from_hagerup;
using exec::from_mw;

/// Scenario-level conveniences over exec::make_backend():

/// Run the scenario through the mw message-passing simulator.
[[nodiscard]] BackendRun run_mw(const Scenario& scenario);

/// Run the scenario through the hagerup direct simulator (the caller
/// checks Scenario::hagerup_comparable(); the backend itself rejects
/// configs it cannot express).  Overhead is accounted analytically to
/// match mw's OverheadMode::kAnalytic.
[[nodiscard]] BackendRun run_hagerup(const Scenario& scenario);

/// Execute the scenario's technique natively through the runtime
/// backend: real threads (capped at 8 for fuzz runs), so only
/// structural invariants (coverage, conservation) apply.  `n_cap`
/// bounds the iteration count to keep fuzz runs fast.
[[nodiscard]] BackendRun run_runtime(const Scenario& scenario, std::size_t n_cap = 2048);

}  // namespace check
