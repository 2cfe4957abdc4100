#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "simx/platform.hpp"

namespace {

using simx::Host;
using simx::Platform;
using simx::SpeedProfile;

TEST(Host, ConstantSpeedFinishTime) {
  Host h(1e9, 0);
  EXPECT_DOUBLE_EQ(h.finish_time(0.0, 2e9), 2.0);
  EXPECT_DOUBLE_EQ(h.finish_time(5.0, 5e8), 5.5);
}

TEST(Host, ZeroFlopsFinishImmediately) {
  Host h(1e9, 0);
  EXPECT_DOUBLE_EQ(h.finish_time(3.0, 0.0), 3.0);
}

TEST(Host, RejectsNonPositiveSpeed) {
  for (const double speed : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(Host(speed, 0), std::invalid_argument) << speed;
  }
}

TEST(Host, ProfileSlowdownMidWork) {
  Host h(1e9, 0);
  // Full speed until t=1, half speed afterwards.
  h.set_speed_profile(SpeedProfile{{0.0, 1.0}, {1e9, 5e8}});
  // 2e9 flops from t=0: 1e9 done by t=1, remaining 1e9 at 5e8/s -> +2s.
  EXPECT_DOUBLE_EQ(h.finish_time(0.0, 2e9), 3.0);
}

TEST(Host, ProfileStoppedSegmentPausesWork) {
  Host h(1e9, 0);
  // Stopped between t=1 and t=2 (a failure/perturbation window).
  h.set_speed_profile(SpeedProfile{{0.0, 1.0, 2.0}, {1e9, 0.0, 1e9}});
  EXPECT_DOUBLE_EQ(h.finish_time(0.0, 1.5e9), 2.5);
}

TEST(Host, ProfileStartMidSegment) {
  Host h(1e9, 0);
  h.set_speed_profile(SpeedProfile{{0.0, 10.0}, {1e9, 2e9}});
  // Start at t=9.5: 0.5s at 1e9 then the rest at 2e9.
  EXPECT_DOUBLE_EQ(h.finish_time(9.5, 1.5e9), 10.5);
}

TEST(Host, ForeverStoppedThrows) {
  Host h(1e9, 0);
  h.set_speed_profile(SpeedProfile{{0.0, 1.0}, {1e9, 0.0}});
  EXPECT_THROW((void)h.finish_time(2.0, 1.0), std::runtime_error);
}

TEST(SpeedProfile, ValidatesInvariants) {
  EXPECT_THROW((SpeedProfile{{}, {}}.validate()), std::invalid_argument);
  EXPECT_THROW((SpeedProfile{{1.0}, {1e9}}.validate()), std::invalid_argument);  // t0 != 0
  EXPECT_THROW((SpeedProfile{{0.0, 0.0}, {1.0, 2.0}}.validate()), std::invalid_argument);
  EXPECT_THROW((SpeedProfile{{0.0}, {-1.0}}.validate()), std::invalid_argument);
  EXPECT_NO_THROW((SpeedProfile{{0.0, 1.0}, {1e9, 0.0}}.validate()));
}

/// Hosts 0 and 1 joined by one route over `links` (bandwidth, latency).
Platform two_hosts(std::initializer_list<std::pair<double, double>> links) {
  Platform p;
  p.add_host(1e9);
  p.add_host(1e9);
  std::vector<std::size_t> route;
  for (const auto& [bandwidth, latency] : links) route.push_back(p.add_link(bandwidth, latency));
  p.add_route(0, 1, route);
  return p;
}

TEST(Platform, RouteCostIsLatencyPlusTransfer) {
  const Platform p = two_hosts({{/*bandwidth=*/1e6, /*latency=*/0.001}});
  // 1000 bytes at 1e6 B/s = 1 ms, plus 1 ms latency.
  EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(0), p.host_at(1), 1000), 0.002);
  // Symmetric.
  EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(1), p.host_at(0), 1000), 0.002);
}

TEST(Platform, MultiLinkRouteSumsLatencyMinsBandwidth) {
  const Platform p = two_hosts({{1e6, 0.001}, {5e5, 0.002}});
  // latency 3 ms; bottleneck bandwidth 5e5 -> 1000 B = 2 ms.
  EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(0), p.host_at(1), 1000), 0.005);
}

TEST(Platform, InfiniteBandwidthCostsOnlyLatency) {
  const Platform p = two_hosts({{std::numeric_limits<double>::infinity(), 0.001}});
  EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(0), p.host_at(1), 1 << 20), 0.001);
}

TEST(Platform, HostIndicesFollowInsertionOrder) {
  Platform p;
  EXPECT_EQ(p.add_host(1e9).index(), 0u);
  EXPECT_EQ(p.add_host(2e9).index(), 1u);
  EXPECT_EQ(p.add_link(1e6, 0.0), 0u);
  EXPECT_EQ(p.add_link(1e6, 0.0), 1u);
  EXPECT_DOUBLE_EQ(p.host_at(1).speed(), 2e9);
}

TEST(Platform, SameHostIsFree) {
  Platform p;
  const Host& a = p.add_host(1e9);
  EXPECT_DOUBLE_EQ(p.comm_time(a, a, 1 << 20), 0.0);
}

TEST(Platform, MissingRouteThrows) {
  Platform p;
  const Host& a = p.add_host(1e9);
  const Host& b = p.add_host(1e9);
  EXPECT_THROW((void)p.comm_time(a, b, 1), std::runtime_error);
}

TEST(Platform, RejectsBadLinkValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Platform p;
  for (const double bandwidth : {0.0, -1.0, kNaN}) {
    EXPECT_THROW((void)p.add_link(bandwidth, 0.0), std::invalid_argument) << bandwidth;
  }
  for (const double latency : {-1.0, kInf, kNaN}) {
    EXPECT_THROW((void)p.add_link(1e6, latency), std::invalid_argument) << latency;
  }
  EXPECT_EQ(p.link_count(), 0u);
}

TEST(Platform, RouteIndicesOutOfRangeThrow) {
  Platform p;
  p.add_host(1e9);
  p.add_host(1e9);
  const std::size_t link = p.add_link(1e6, 0.0);
  const std::size_t ghost = link + 1;
  EXPECT_THROW(p.add_route(0, 2, {&link, 1}), std::invalid_argument);
  EXPECT_THROW(p.add_route(0, 1, {&ghost, 1}), std::invalid_argument);
  EXPECT_THROW(p.add_route(0, 1, {}), std::invalid_argument);
}

TEST(Platform, StarBuilderShape) {
  const Platform p = simx::make_star_platform(4, 1e9, 1e9, 1e-6);
  EXPECT_EQ(p.host_count(), 5u);
  EXPECT_EQ(p.link_count(), 4u);
  EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(0), p.host_at(4), 0), 1e-6);
  // Workers reach each other only through the master.
  EXPECT_THROW((void)p.comm_time(p.host_at(1), p.host_at(2), 0), std::runtime_error);
}

TEST(Platform, StarBuilderAppliesPerWorkerSpeeds) {
  const std::vector<double> factors{1.0, 0.5};
  const std::vector<SpeedProfile> profiles{SpeedProfile{{0.0}, {1e9}},
                                           SpeedProfile{{0.0, 1.0}, {3e9, 0.0}}};
  const Platform p = simx::make_star_platform(2, 2e9, 1e9, 1e-6, factors);
  EXPECT_DOUBLE_EQ(p.host_at(0).speed(), 2e9);
  EXPECT_DOUBLE_EQ(p.host_at(2).speed(), 1e9);
  const Platform profiled = simx::make_star_platform(2, 2e9, 1e9, 1e-6, factors, profiles);
  EXPECT_EQ(profiled.host_at(2).profile(), profiles[1]);
  EXPECT_THROW((void)simx::make_star_platform(3, 2e9, 1e9, 1e-6, factors), std::invalid_argument);
}

}  // namespace
