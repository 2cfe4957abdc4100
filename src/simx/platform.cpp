#include "simx/platform.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

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

Host::Host(double speed_flops, std::size_t index) : index_(index) {
  if (!(speed_flops > 0.0) || !std::isfinite(speed_flops)) {
    throw std::invalid_argument("Host: speed must be finite and > 0");
  }
  profile_.time_points = {0.0};
  profile_.speeds = {speed_flops};
}

double Host::speed() const { return profile_.speeds.front(); }

void Host::set_speed_profile(SpeedProfile profile) {
  profile.validate();
  profile_ = std::move(profile);
}

SimTime Host::finish_time_profiled(SimTime start, double flops) const {
  if (flops <= 0.0) return start;
  // Locate the active segment, then consume capacity segment by segment.
  std::size_t seg = 0;
  while (seg + 1 < profile_.time_points.size() && profile_.time_points[seg + 1] <= start) ++seg;
  SimTime t = start;
  double remaining = flops;
  for (;;) {
    const double speed = profile_.speeds[seg];
    const bool last = seg + 1 == profile_.time_points.size();
    const SimTime seg_end = last ? std::numeric_limits<SimTime>::infinity()
                                 : profile_.time_points[seg + 1];
    if (speed > 0.0) {
      const SimTime need = remaining / speed;
      if (t + need <= seg_end) return t + need;
      remaining -= speed * (seg_end - t);
    }
    if (last) {
      throw std::runtime_error("host " + std::to_string(index_) +
                               ": work cannot finish (zero speed to infinity)");
    }
    t = seg_end;
    ++seg;
  }
}

Host& Platform::add_host(double speed_flops) {
  hosts_.push_back(std::make_unique<Host>(speed_flops, hosts_.size()));
  routes_.emplace_back();
  return *hosts_.back();
}

std::size_t Platform::add_link(double bandwidth, SimTime latency) {
  if (!(bandwidth > 0.0)) throw std::invalid_argument("link bandwidth must be > 0");
  if (!(latency >= 0.0) || !std::isfinite(latency)) {
    throw std::invalid_argument("link latency must be finite and >= 0");
  }
  links_.push_back(RouteCost{latency, bandwidth});
  return links_.size() - 1;
}

void Platform::set_route_cost(std::size_t from, std::size_t to, RouteCost cost) {
  RouteRow& row = routes_[from];
  if (row.costs.empty()) {
    row.base = to;
    row.costs.push_back(cost);
    return;
  }
  if (to < row.base) {
    row.costs.insert(row.costs.begin(), row.base - to, RouteCost{});
    row.base = to;
  } else if (to - row.base >= row.costs.size()) {
    row.costs.resize(to - row.base + 1);
  }
  row.costs[to - row.base] = cost;
}

void Platform::add_route(std::size_t host_a, std::size_t host_b,
                         std::span<const std::size_t> links) {
  if (links.empty()) throw std::invalid_argument("route needs at least one link");
  if (host_a >= hosts_.size() || host_b >= hosts_.size()) {
    throw std::invalid_argument("route names a host index out of range");
  }
  RouteCost cost{0.0, std::numeric_limits<double>::infinity()};
  for (const std::size_t index : links) {
    if (index >= links_.size()) {
      throw std::invalid_argument("route names a link index out of range");
    }
    cost.latency += links_[index].latency;
    cost.bandwidth = std::min(cost.bandwidth, links_[index].bandwidth);
  }
  set_route_cost(host_a, host_b, cost);
  set_route_cost(host_b, host_a, cost);
}

SimTime Platform::comm_time(const Host& src, const Host& dst, std::size_t bytes) const {
  if (src.index() == dst.index()) return 0.0;
  const RouteRow& row = routes_[src.index()];
  const std::size_t peer = dst.index();
  if (peer < row.base || peer - row.base >= row.costs.size() ||
      !(row.costs[peer - row.base].bandwidth > 0.0)) {
    throw std::runtime_error("no route between hosts " + std::to_string(src.index()) + " and " +
                             std::to_string(peer));
  }
  const RouteCost& cost = row.costs[peer - row.base];
  return cost.latency + static_cast<double>(bytes) / cost.bandwidth;
}

Platform make_star_platform(std::size_t workers, double speed, double bandwidth,
                            SimTime latency, std::span<const double> speed_factors,
                            std::span<const SpeedProfile> speed_profiles) {
  if ((!speed_factors.empty() && speed_factors.size() != workers) ||
      (!speed_profiles.empty() && speed_profiles.size() != workers)) {
    throw std::invalid_argument("star platform: per-worker lists need one entry per worker");
  }
  Platform p;
  p.add_host(speed);
  for (std::size_t i = 0; i < workers; ++i) {
    Host& host = p.add_host(speed_factors.empty() ? speed : speed * speed_factors[i]);
    if (!speed_profiles.empty()) host.set_speed_profile(speed_profiles[i]);
    const std::size_t link = p.add_link(bandwidth, latency);
    p.add_route(0, host.index(), {&link, 1});
  }
  return p;
}

}  // namespace simx
