#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace simx {

/// Simulated (virtual) time in seconds, as in SimGrid.
using SimTime = double;

/// A piecewise-constant host speed profile: segment i is active from
/// time_points[i] until time_points[i+1] (the last segment extends to
/// infinity).  Profiles model the systemic variability (perturbations,
/// slowdowns, stopped hosts) studied in the robustness/resilience work
/// the paper builds on.
struct SpeedProfile {
  std::vector<SimTime> time_points;  ///< ascending, first must be 0
  std::vector<double> speeds;        ///< flops/s; zero = host stopped

  /// Validates invariants; throws std::invalid_argument.
  void validate() const;

  [[nodiscard]] bool operator==(const SpeedProfile&) const = default;
};

/// A processing element of the simulated platform (paper Figure 2:
/// "Hosts: Speed, Number of Cores").  A PE in this work is a single
/// computing core (paper Section II).  A host is known by its index:
/// its position in the order the platform added it.
class Host {
 public:
  /// Throws std::invalid_argument unless speed_flops is finite and > 0.
  Host(double speed_flops, std::size_t index);

  /// Nominal speed in flops/s (the first profile segment).
  [[nodiscard]] double speed() const;
  [[nodiscard]] std::size_t index() const { return index_; }

  /// Replace the constant speed with a piecewise profile.
  void set_speed_profile(SpeedProfile profile);
  [[nodiscard]] const SpeedProfile& profile() const { return profile_; }

  /// Virtual time at which `flops` of work started at `start` completes,
  /// integrating the speed profile.  Throws std::runtime_error if the
  /// host's remaining capacity is zero forever (work can never finish).
  ///
  /// Inline fast path for the overwhelmingly common constant-speed host
  /// (one profile segment): the per-chunk execute() call must not pay
  /// an out-of-line segment walk.
  [[nodiscard]] SimTime finish_time(SimTime start, double flops) const {
    if (profile_.time_points.size() == 1) {
      if (flops <= 0.0) return start;
      const double speed = profile_.speeds[0];
      // speed == 0 falls through to the profiled path for its
      // "cannot finish" diagnostic.
      if (speed > 0.0) return start + flops / speed;
    }
    return finish_time_profiled(start, flops);
  }

 private:
  [[nodiscard]] SimTime finish_time_profiled(SimTime start, double flops) const;

  std::size_t index_;
  SpeedProfile profile_;
};

/// The simulated system: hosts, links and routes, all addressed by
/// index (insertion order).  This is the in-memory form of the paper's
/// "SimGrid-MSG platform file"; its one textual form is the system
/// information of an experiment spec (sweep/experiment.hpp), from which
/// mw builds the star with make_star_platform.  Hosts and links have
/// no names.
///
/// Message cost model: a transfer of b bytes along a route traverses all
/// its links store-free, costing sum(latencies) + b / min(bandwidths).
/// This is a documented simplification of SimGrid's flow model; the
/// reproduced experiments either null out the network (BOLD study:
/// "bandwidth to a very high value and the latency to a very low value")
/// or use a star topology where the simple model is exact per message.
class Platform {
 public:
  Platform() = default;
  Platform(Platform&&) noexcept = default;
  Platform& operator=(Platform&&) noexcept = default;
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Append a host; its index is the previous host_count().  The
  /// reference stays valid for the platform's lifetime, also across a
  /// move of the platform.
  Host& add_host(double speed_flops);
  /// Append a network link (paper Figure 2: "Network: Bandwidth,
  /// Latency, Topology") and return its index.  Bandwidth is in bytes/s
  /// and must be > 0; +inf makes transfers cost only the latency.
  /// Latency is in seconds and must be finite and >= 0.  Throws
  /// std::invalid_argument otherwise.
  std::size_t add_link(double bandwidth, SimTime latency);
  /// Register a bidirectional route between hosts `host_a` and `host_b`
  /// over the given links (at least one).  Re-registering a pair
  /// overwrites the previous route.  Throws std::invalid_argument on an
  /// index out of range.
  void add_route(std::size_t host_a, std::size_t host_b, std::span<const std::size_t> links);

  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] Host& host_at(std::size_t index) { return *hosts_.at(index); }
  [[nodiscard]] const Host& host_at(std::size_t index) const { return *hosts_.at(index); }

  /// Time to move `bytes` from `src` to `dst`.  Same-host transfers are
  /// free.  Throws std::runtime_error if no route is registered.
  [[nodiscard]] SimTime comm_time(const Host& src, const Host& dst, std::size_t bytes) const;

 private:
  /// The cost of one link, or of a whole route over several links.
  struct RouteCost {
    SimTime latency = 0.0;
    double bandwidth = 0.0;  ///< > 0 for a registered route (add_link validates)
  };
  /// Dense per-host route row with a base offset: costs[j] is the route
  /// to peer index base + j, bandwidth == 0 meaning "no route".  A star
  /// topology stores O(hosts) total (the hub's row is contiguous, each
  /// leaf's row is one entry), and comm_time is two loads and a range
  /// check -- no tree walk, no pair hashing.
  struct RouteRow {
    std::size_t base = 0;
    std::vector<RouteCost> costs;
  };

  void set_route_cost(std::size_t from, std::size_t to, RouteCost cost);

  std::vector<std::unique_ptr<Host>> hosts_;  ///< boxed: Host& outlives a Platform move
  std::vector<RouteCost> links_;
  std::vector<RouteRow> routes_;  ///< indexed by host index
};

/// Star platform of paper Figure 1, the one topology the experiments
/// build: host 0 is the master, host i + 1 is worker i, and link i
/// joins worker i to the master with the given bandwidth/latency.  The
/// master runs at `speed`; worker i runs at speed * speed_factors[i]
/// (or `speed` when speed_factors is empty) and, when speed_profiles is
/// non-empty, follows speed_profiles[i] instead.  Each non-empty list
/// must have one entry per worker.
[[nodiscard]] Platform make_star_platform(std::size_t workers, double speed, double bandwidth,
                                          SimTime latency,
                                          std::span<const double> speed_factors = {},
                                          std::span<const SpeedProfile> speed_profiles = {});

}  // namespace simx
