#pragma once

#include <vector>

namespace simx {

/// Simulated (virtual) time in seconds, as in SimGrid.
using SimTime = double;

/// A piecewise-constant PE speed profile: segment i is active from
/// time_points[i] until time_points[i+1] (the last segment extends to
/// infinity).  Profiles model the systemic variability (perturbations,
/// slowdowns, stopped PEs) studied in the robustness/resilience work
/// the paper builds on.
struct SpeedProfile {
  std::vector<SimTime> time_points;  ///< ascending, first must be 0
  std::vector<double> speeds;        ///< flops/s; zero = PE stopped

  /// Validates invariants; throws std::invalid_argument.
  void validate() const;
};

/// Virtual time at which `flops` of work started at `start` completes
/// on a PE running at the constant `speed` flops/s (finite and > 0).
[[nodiscard]] inline SimTime finish_time(double speed, SimTime start, double flops) {
  if (flops <= 0.0) return start;
  return start + flops / speed;
}

/// The profile's segment walk behind finish_time(profile, ...).
[[nodiscard]] SimTime finish_time_profiled(const SpeedProfile& profile, SimTime start,
                                           double flops);

/// Virtual time at which `flops` of work started at `start` completes
/// on a PE that follows `profile` (a validated one), integrating its
/// speed.  Throws std::runtime_error if the remaining capacity is zero
/// forever (work can never finish).
///
/// Inline fast path for the common one-segment profile: the per-chunk
/// call must not pay an out-of-line segment walk.  A zero speed falls
/// through to the walk for its "cannot finish" diagnostic.
[[nodiscard]] inline SimTime finish_time(const SpeedProfile& profile, SimTime start,
                                         double flops) {
  if (profile.time_points.size() == 1 && profile.speeds[0] > 0.0) {
    return finish_time(profile.speeds[0], start, flops);
  }
  return finish_time_profiled(profile, start, flops);
}

}  // namespace simx
