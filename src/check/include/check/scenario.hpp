#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "mw/config.hpp"

namespace check {

/// One randomized-but-seeded point of the full mw::Config space
/// (technique x workload x workers x heterogeneous speeds x piecewise
/// perturbation profiles x fail-stop times x overhead mode x network x
/// timesteps), plus the structural facts the invariant catalog keys
/// off.  Scenarios always record the chunk log.
struct Scenario {
  mw::Config config;

  // Derived structural facts; recomputed by classify().
  /// Message delays are exactly zero (check_worker_monotonicity's
  /// regime; hagerup_comparable also admits near-null networks).
  bool null_network = false;
  bool heterogeneous = false;  ///< speed factors or profiles present
  bool has_failures = false;   ///< some worker has a finite fail-stop time
  /// Technique consumes timing feedback (AWF*, AF) or wall-clock state
  /// (BOLD), so scheduling decisions are sensitive to sub-ulp timing
  /// differences between backends.
  bool timing_sensitive = false;

  /// Replayable through hagerup::run with comparable decisions: exactly
  /// the configs the hagerup backend's validate() accepts (single
  /// timestep, a null or near-null network, no simulated overhead,
  /// homogeneous, failure-free: the BOLD study's regime).
  [[nodiscard]] bool hagerup_comparable() const;
  /// Stricter: additionally not timing-sensitive and without per-PE
  /// weights, so the mw and hagerup chunk-size sequences must be
  /// BITWISE identical.
  [[nodiscard]] bool hagerup_identical() const;
};

/// Bounds of the generated space (keeps fuzz runs to seconds).
struct ScenarioOptions {
  std::size_t max_tasks = 4096;
  std::size_t min_tasks = 8;
  std::size_t max_workers = 16;
  std::size_t max_timesteps = 3;
};

/// Deterministic scenario `index` of stream `seed`: the same (seed,
/// index, options) always yields the same scenario, independent of
/// platform and of any other scenario.
[[nodiscard]] Scenario generate_scenario(std::uint64_t seed, std::size_t index,
                                         const ScenarioOptions& options = {});

/// Recompute the derived structural facts from scenario.config (call
/// after mutating the config, e.g. while minimizing).
void classify(Scenario& scenario);

/// The scenario as a replayable experiment file (sweep/experiment.hpp):
/// feed it to `dls_sim` or sweep::parse_experiment_spec to reproduce
/// the run.
[[nodiscard]] std::string to_experiment_text(const Scenario& scenario);

}  // namespace check
