#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dls/params.hpp"
#include "simx/speed_profile.hpp"
#include "workload/task_times.hpp"

namespace mw {

/// How the scheduling overhead h is charged (paper Section III-B).
enum class OverheadMode {
  /// The BOLD publication's accounting, replicated by the paper: the
  /// simulation itself runs with free scheduling, and h multiplied by
  /// the number of scheduling operations is added to the wasted time
  /// afterwards ("the scheduling overhead h is added for each
  /// scheduling operation directly").
  kAnalytic,
  /// The master's CPU is occupied for h seconds per scheduling
  /// operation inside the simulation, so overhead delays workers and
  /// serializes on the master.
  kSimulated,
  /// h occupies the requesting worker before its chunk executes: the
  /// BOLD publication's simulator, where the overhead "was added
  /// directly to the simulation times".  Only the hagerup backend has
  /// that timeline (hagerup::Config::charge_overhead_inline); mw
  /// refuses it.  The overhead ablation pairs it with kAnalytic.
  kInline,
};

/// Complete description of one master-worker scheduling simulation:
/// the "Application Information", "System Information" and "Execution
/// Information" boxes of paper Figure 2.
struct Config {
  // --- application information ---
  dls::Kind technique = dls::Kind::kSS;
  /// Table I parameters; params.p is forced to `workers` and params.n
  /// to `tasks` by run_simulation.
  dls::Params params;
  std::size_t tasks = 0;
  /// Task execution time generator (shared, stateless w.r.t. sampling).
  std::shared_ptr<const workload::TaskTimeGenerator> workload;
  /// Number of time steps of a time-stepping application; the n tasks
  /// are re-scheduled every step with freshly drawn execution times.
  std::size_t timesteps = 1;

  // --- system information ---
  std::size_t workers = 1;
  /// Reference PE speed [flops/s]; nominal task seconds are converted
  /// to flops against this speed.
  double host_speed = 1e9;
  /// Per-worker relative speed factors (empty = homogeneous).  Worker i
  /// runs at host_speed * factor[i]; a factor < 1 models a slower PE.
  std::vector<double> worker_speed_factors;
  /// Per-worker piecewise speed profiles (empty = constant speeds).
  /// Profile speeds are absolute flops/s and override the factors; a
  /// zero-speed segment models the perturbations and failures of the
  /// robustness/resilience studies the paper builds on.
  std::vector<simx::SpeedProfile> worker_speed_profiles;
  /// Fail-stop times per worker (empty = no failures; use
  /// `infinity` for survivors).  A worker that reaches its failure time
  /// announces the failure on its next chunk (in-progress work is
  /// lost); the master reclaims the outstanding tasks and re-schedules
  /// them on the surviving workers -- the resilience scenario of the
  /// studies the paper cites.  All workers failing with work left is an
  /// error.
  std::vector<double> worker_failure_times;
  double bandwidth = 1e21;   ///< bytes/s ("very high": null network)
  double latency = 1e-12;    ///< s       ("very low":  null network)
  std::size_t request_bytes = 64;
  std::size_t reply_bytes = 64;

  // --- execution information ---
  OverheadMode overhead_mode = OverheadMode::kAnalytic;
  std::uint64_t seed = 42;
  /// Draw task times with the replicated POSIX rand48 generator instead
  /// of xoshiro256** (faithful to the BOLD publication's erand48).
  bool use_rand48 = false;
  /// Record the full per-chunk log (pe, size, time) in the result.
  bool record_chunk_log = false;
};

/// Virtual seconds one message of `bytes` takes over a worker's link of
/// the Figure 1 star: latency + bytes / bandwidth, so an infinite
/// bandwidth costs only the latency.  Every worker's link is the same.
[[nodiscard]] inline double message_delay(const Config& config, std::size_t bytes) {
  return config.latency + static_cast<double>(bytes) / config.bandwidth;
}

}  // namespace mw
