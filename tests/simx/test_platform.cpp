// The star's two ingredients: how long work takes on a PE (simx's free
// finish_time over a constant speed or a SpeedProfile), and which
// speeds and network values mw accepts for its workers and links.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "mw/simulation.hpp"
#include "simx/speed_profile.hpp"
#include "workload/task_times.hpp"

namespace {

using simx::SpeedProfile;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(FinishTime, ConstantSpeed) {
  EXPECT_DOUBLE_EQ(simx::finish_time(1e9, 0.0, 2e9), 2.0);
  EXPECT_DOUBLE_EQ(simx::finish_time(1e9, 5.0, 5e8), 5.5);
  // A one-segment profile is the same constant speed.
  EXPECT_DOUBLE_EQ(simx::finish_time(SpeedProfile{{0.0}, {1e9}}, 5.0, 5e8), 5.5);
}

TEST(FinishTime, ZeroFlopsFinishImmediately) {
  EXPECT_DOUBLE_EQ(simx::finish_time(1e9, 3.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(simx::finish_time(SpeedProfile{{0.0}, {1e9}}, 3.0, 0.0), 3.0);
  // Even on a PE stopped forever.
  EXPECT_DOUBLE_EQ(simx::finish_time(SpeedProfile{{0.0}, {0.0}}, 3.0, 0.0), 3.0);
}

TEST(FinishTime, ProfileSlowdownMidWork) {
  // Full speed until t=1, half speed afterwards.
  const SpeedProfile profile{{0.0, 1.0}, {1e9, 5e8}};
  // 2e9 flops from t=0: 1e9 done by t=1, remaining 1e9 at 5e8/s -> +2s.
  EXPECT_DOUBLE_EQ(simx::finish_time(profile, 0.0, 2e9), 3.0);
}

TEST(FinishTime, ProfileStoppedSegmentPausesWork) {
  // Stopped between t=1 and t=2 (a failure/perturbation window).
  const SpeedProfile profile{{0.0, 1.0, 2.0}, {1e9, 0.0, 1e9}};
  EXPECT_DOUBLE_EQ(simx::finish_time(profile, 0.0, 1.5e9), 2.5);
}

TEST(FinishTime, ProfileStartMidSegment) {
  const SpeedProfile profile{{0.0, 10.0}, {1e9, 2e9}};
  // Start at t=9.5: 0.5s at 1e9 then the rest at 2e9.
  EXPECT_DOUBLE_EQ(simx::finish_time(profile, 9.5, 1.5e9), 10.5);
}

TEST(FinishTime, ForeverStoppedThrows) {
  EXPECT_THROW((void)simx::finish_time(SpeedProfile{{0.0, 1.0}, {1e9, 0.0}}, 2.0, 1.0),
               std::runtime_error);
  EXPECT_THROW((void)simx::finish_time(SpeedProfile{{0.0}, {0.0}}, 0.0, 1.0),
               std::runtime_error);
}

TEST(SpeedProfile, ValidatesInvariants) {
  EXPECT_THROW((SpeedProfile{{}, {}}.validate()), std::invalid_argument);
  EXPECT_THROW((SpeedProfile{{1.0}, {1e9}}.validate()), std::invalid_argument);  // t0 != 0
  EXPECT_THROW((SpeedProfile{{0.0, 0.0}, {1.0, 2.0}}.validate()), std::invalid_argument);
  EXPECT_THROW((SpeedProfile{{0.0}, {-1.0}}.validate()), std::invalid_argument);
  EXPECT_NO_THROW((SpeedProfile{{0.0, 1.0}, {1e9, 0.0}}.validate()));
}

/// A two-worker run on mw's defaults (a valid Config).
mw::Config two_workers() {
  mw::Config cfg;
  cfg.workers = 2;
  cfg.tasks = 4;
  cfg.workload = workload::constant(1.0);
  return cfg;
}

TEST(StarConfig, RejectsBadWorkerSpeeds) {
  for (const double speed : {0.0, -1.0, kInf, kNaN}) {
    mw::Config cfg = two_workers();
    cfg.host_speed = speed;
    EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument) << speed;
  }
  // host_speed * factor must itself be a finite speed > 0.
  for (const double factor : {1e300, kInf, kNaN, 0.0}) {
    mw::Config cfg = two_workers();
    cfg.worker_speed_factors = {1.0, factor};
    EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument) << factor;
  }
  mw::Config underflow = two_workers();
  underflow.host_speed = 1e-300;
  underflow.worker_speed_factors = {1.0, 1e-300};
  EXPECT_THROW((void)mw::run_simulation(underflow), std::invalid_argument);
  mw::Config wrong_size = two_workers();
  wrong_size.worker_speed_factors = {1.0, 0.5, 2.0};
  EXPECT_THROW((void)mw::run_simulation(wrong_size), std::invalid_argument);
}

TEST(StarConfig, RejectsBadLinkValues) {
  for (const double latency : {-1.0, kInf, kNaN}) {
    mw::Config cfg = two_workers();
    cfg.latency = latency;
    EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument) << latency;
  }
  for (const double bandwidth : {0.0, -1.0, kNaN}) {
    mw::Config cfg = two_workers();
    cfg.bandwidth = bandwidth;
    EXPECT_THROW((void)mw::run_simulation(cfg), std::invalid_argument) << bandwidth;
  }
  // The limits themselves run: zero latency over infinite bandwidth.
  mw::Config free = two_workers();
  free.latency = 0.0;
  free.bandwidth = kInf;
  EXPECT_DOUBLE_EQ(mw::run_simulation(free).makespan, 2.0);
}

}  // namespace
