#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/scenario.hpp"
#include "exec/backend.hpp"

namespace check {

/// The runtime backend's caps for fuzz runs: real threads and real
/// loops, so at most 2048 iterations on at most 8 threads keep a
/// scenario fast.
extern const exec::BackendOptions kRuntimeFuzzOptions;

/// Knobs of one conformance run (the dls_check CLI mirrors these).
struct CheckOptions {
  std::size_t runs = 100;       ///< scenarios to generate and check
  std::uint64_t seed = 1;       ///< scenario stream seed
  ScenarioOptions scenario;     ///< bounds of the generated space
  bool minimize = true;         ///< shrink violating scenarios before reporting
  std::size_t shrink_budget = 64;  ///< max scenario re-checks while shrinking
  /// Every `expensive_stride`-th scenario additionally runs the
  /// cross-execution checks (mw determinism, batch determinism,
  /// worker monotonicity), which re-run the simulation several times.
  std::size_t expensive_stride = 8;
  /// Run the native runtime::DlsLoopExecutor backend (real threads;
  /// disable where spawning threads is unwanted).
  bool check_runtime = true;
  unsigned threads = 0;  ///< scenario-level parallelism (0 = default)
};

/// One reported violation: which scenario, which invariant, and the
/// minimized replayable experiment file that reproduces it.
struct Violation {
  std::size_t scenario_index = 0;
  std::string invariant;
  std::string message;
  std::string experiment_text;
};

struct CheckReport {
  std::size_t scenarios = 0;
  std::vector<Violation> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// All invariants applicable to `scenario`, including the cross-backend
/// comparison; `expensive` additionally enables the multi-run checks.
[[nodiscard]] std::vector<Failure> check_scenario(const Scenario& scenario, bool expensive,
                                                  bool check_runtime = true);

/// Greedily shrink `scenario` (fewer tasks/workers/timesteps, dropped
/// heterogeneity/failures/overhead, simpler workload) while
/// `still_fails` keeps returning true, re-checking at most `budget`
/// candidates.  Returns the smallest still-failing scenario.
[[nodiscard]] Scenario minimize_scenario(
    const Scenario& scenario, const std::function<bool(const Scenario&)>& still_fails,
    std::size_t budget = 64);

/// Generate `options.runs` scenarios and check them all.  Violations
/// come back minimized (when options.minimize) and replayable, ordered
/// by scenario index.
[[nodiscard]] CheckReport run_checks(const CheckOptions& options);

/// Human-readable report; returns report.ok().
bool print_report(const CheckReport& report, std::ostream& out);

}  // namespace check
