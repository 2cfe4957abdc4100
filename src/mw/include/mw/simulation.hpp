#pragma once

#include <memory>

#include "mw/config.hpp"
#include "mw/result.hpp"

namespace mw {

/// Reusable scratch state for run_simulation.
///
/// Holds the event queue, the per-worker actor state, the workload and
/// prefix-sum buffers, and every bookkeeping vector of the serve loop.
/// Each run sizes them from its own Config (nothing about the star is
/// cached), and after the first run at a worker count the event loop
/// reaches a steady state with no heap allocation per chunk or per
/// worker.
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
///   * the star is the Config's system information: worker i runs at
///     host_speed * factor[i] (or follows profile i), and every message
///     costs message_delay(config, bytes);
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

/// Same, but reusing `context`'s buffers across calls --
/// the fast path for parameter sweeps (see exec::BatchRunner).
RunResult run_simulation(const Config& config, RunContext& context);

}  // namespace mw
