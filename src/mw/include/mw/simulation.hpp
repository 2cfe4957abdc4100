#pragma once

#include <memory>

#include "mw/config.hpp"
#include "mw/result.hpp"

namespace mw {

/// Reusable scratch state for run_simulation.
///
/// Holds the platform, the event queue, the per-worker actor state, the
/// workload and prefix-sum buffers, and every bookkeeping vector of the
/// serve loop.  When consecutive runs share the platform shape
/// (workers, speeds, network parameters), the platform is reused
/// instead of rebuilt, and after the first run the event loop reaches a
/// steady state with no heap allocation per chunk.
///
/// Not thread-safe: use one RunContext per thread (the exec layer's
/// mw backend holds one per pooled instance).
class RunContext {
 public:
  RunContext();
  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Opaque implementation (defined in simulation.cpp).
  struct Impl;

 private:
  friend RunResult run_simulation(const Config& config, RunContext& context);
  std::unique_ptr<Impl> impl_;
};

/// Execute one master-worker scheduling simulation (paper Figure 1):
///
///   * a star platform is built from the Config's system information;
///   * one master and `workers` worker actors run as an event loop;
///   * idle workers send work-request messages; the master computes the
///     next chunk size with the configured DLS technique and replies
///     with the chunk's aggregate nominal execution time;
///   * on exhaustion the master sends finalization messages and the
///     simulation ends.
///
/// Deterministic: the same Config (including seed) always produces the
/// same result, with or without a reused RunContext.  Throws on invalid
/// configurations.
[[nodiscard]] RunResult run_simulation(const Config& config);

/// Same, but reusing `context`'s platform and buffers across calls --
/// the fast path for parameter sweeps (see exec::BatchRunner).
RunResult run_simulation(const Config& config, RunContext& context);

}  // namespace mw
