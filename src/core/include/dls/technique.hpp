#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "dls/params.hpp"

namespace dls {

/// A chunk request arriving at the scheduler (master side of paper
/// Figure 1).  `pe` identifies the requesting processing element;
/// `now` is the virtual time of the request, used by the adaptive
/// techniques and available to any technique that models overhead.
struct Request {
  std::size_t pe = 0;
  double now = 0.0;
};

/// Completion report for a previously issued chunk.  The master learns
/// completion implicitly: a worker's next work request means its last
/// chunk finished.  Adaptive techniques (AWF*, AF) update their per-PE
/// execution-rate estimates from this; BOLD updates its count m of
/// remaining-plus-in-execution tasks (paper Table I).
struct ChunkFeedback {
  std::size_t pe = 0;
  std::size_t size = 0;
  double exec_time = 0.0;  ///< time the PE spent executing the chunk [s]
  double now = 0.0;
};

/// A dynamic loop scheduling technique: a stateful chunk-size calculator.
///
/// The driver (simulated master, Hagerup-style direct simulator, or an
/// OpenMP-like runtime) calls next_chunk() for every work request and
/// reports completions via on_chunk_complete().  The technique tracks
/// its own allocated/completed counts so that drivers cannot desynchronize
/// the r and m quantities of paper Table I.
class Technique {
 public:
  virtual ~Technique() = default;
  Technique(const Technique&) = delete;
  Technique& operator=(const Technique&) = delete;

  /// Size of the next chunk for the requesting PE; 0 when no tasks
  /// remain unscheduled.  Never exceeds the number of remaining tasks.
  [[nodiscard]] std::size_t next_chunk(const Request& request);

  /// Report that a chunk issued earlier has completed execution.
  void on_chunk_complete(const ChunkFeedback& feedback);

  /// Return `size` previously allocated (but never completed) tasks to
  /// the unscheduled pool -- the building block of fail-stop resilience:
  /// when a PE dies, the master reclaims its outstanding chunk and the
  /// technique re-schedules those tasks (r grows back by `size`).
  /// Techniques whose static plan is already exhausted (STAT, TSS's
  /// trapezoid) fall back to unit chunks for reclaimed work.
  void reclaim(std::size_t size);

  /// Notify a time-step boundary of a time-stepping application
  /// (AWF adapts its weights here; all other techniques ignore it).
  virtual void on_timestep_boundary() {}

  /// Begin a new time step of a time-stepping application: the n tasks
  /// are scheduled afresh, but adaptive state (AWF weights, AF
  /// estimators) persists -- this is precisely what distinguishes AWF
  /// from restarting WF every step.
  void start_new_timestep();

  /// Restart the technique for a new run with identical parameters.
  void reset();

  [[nodiscard]] virtual Kind kind() const = 0;
  [[nodiscard]] virtual std::string name() const;
  /// Parameter-requirement mask reproducing paper Table II.
  [[nodiscard]] virtual unsigned required_mask() const = 0;

  /// Scheduling-state accessors (paper Table I quantities).
  [[nodiscard]] std::size_t remaining() const { return params_.n - allocated_; }      // r
  [[nodiscard]] std::size_t unfinished() const { return params_.n - completed_; }     // m
  [[nodiscard]] std::size_t allocated() const { return allocated_; }
  [[nodiscard]] std::size_t chunks_issued() const { return chunks_issued_; }
  [[nodiscard]] const Params& params() const { return params_; }

 protected:
  explicit Technique(const Params& params);

  /// Technique-specific chunk size before capping to the remaining
  /// count; must be >= 1.  `remaining` (r) and `unfinished` (m) are
  /// passed pre-computed for convenience.
  [[nodiscard]] virtual std::size_t compute_chunk(const Request& request, std::size_t remaining,
                                                  std::size_t unfinished) = 0;
  /// Adaptive-technique hook; counts are already updated when called.
  virtual void do_on_chunk_complete(const ChunkFeedback&) {}
  /// Reset technique-specific state.
  virtual void do_reset() {}
  /// Reset per-sweep state at a time-step boundary while keeping
  /// adaptive state.  Defaults to a full do_reset(), which is correct
  /// for every non-adaptive technique.
  virtual void do_start_timestep() { do_reset(); }

 private:
  Params params_;
  std::size_t allocated_ = 0;
  std::size_t completed_ = 0;
  std::size_t chunks_issued_ = 0;
};

/// Create a technique instance.  Validates parameters for the requested
/// kind (e.g. FAC requires mu > 0, WF requires positive weights) and
/// throws std::invalid_argument on violations.
[[nodiscard]] std::unique_ptr<Technique> make_technique(Kind kind, const Params& params);
[[nodiscard]] std::unique_ptr<Technique> make_technique(const std::string& name,
                                                        const Params& params);

}  // namespace dls
