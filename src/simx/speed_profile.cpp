#include "simx/speed_profile.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace simx {

void SpeedProfile::validate() const {
  if (time_points.empty() || time_points.size() != speeds.size()) {
    throw std::invalid_argument("SpeedProfile: need equally many time points and speeds (>= 1)");
  }
  if (time_points.front() != 0.0) {
    throw std::invalid_argument("SpeedProfile: first time point must be 0");
  }
  for (std::size_t i = 1; i < time_points.size(); ++i) {
    if (!(time_points[i] > time_points[i - 1])) {
      throw std::invalid_argument("SpeedProfile: time points must be strictly ascending");
    }
  }
  for (double s : speeds) {
    if (s < 0.0 || !std::isfinite(s)) {
      throw std::invalid_argument("SpeedProfile: speeds must be finite and >= 0");
    }
  }
}

SimTime finish_time_profiled(const SpeedProfile& profile, SimTime start, double flops) {
  if (flops <= 0.0) return start;
  const std::vector<SimTime>& points = profile.time_points;
  // Locate the active segment, then consume capacity segment by segment.
  std::size_t seg = 0;
  while (seg + 1 < points.size() && points[seg + 1] <= start) ++seg;
  SimTime t = start;
  double remaining = flops;
  for (;;) {
    const double speed = profile.speeds[seg];
    const bool last = seg + 1 == points.size();
    const SimTime seg_end = last ? std::numeric_limits<SimTime>::infinity() : points[seg + 1];
    if (speed > 0.0) {
      const SimTime need = remaining / speed;
      if (t + need <= seg_end) return t + need;
      remaining -= speed * (seg_end - t);
    }
    if (last) throw std::runtime_error("work cannot finish (zero speed to infinity)");
    t = seg_end;
    ++seg;
  }
}

}  // namespace simx
