// The one textual platform input: the system keys of an experiment
// spec (sweep/experiment.hpp).  A spec is parsed, the star platform is
// built from the parsed mw::Config the way mw::run_simulation builds
// it, and the platform's finish and transfer times are checked.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "simx/platform.hpp"
#include "sweep/experiment.hpp"

namespace {

constexpr const char* kSystem = R"(technique SS
tasks      8
workload   constant:1
workers    3
host_speed 2e9
speeds     1,0.5,2
profile1   0:1e9,10:5e8
latency    1e-4
bandwidth  1.25e8
)";

/// The star mw::run_simulation runs `config` on.
simx::Platform star_of(const mw::Config& config) {
  return simx::make_star_platform(config.workers, config.host_speed, config.bandwidth,
                                  config.latency, config.worker_speed_factors,
                                  config.worker_speed_profiles);
}

TEST(PlatformSpec, StarFollowsTheSystemKeys) {
  const simx::Platform p = star_of(sweep::parse_experiment_spec(kSystem).config);
  ASSERT_EQ(p.host_count(), 4u);  // host 0 is the master, host i + 1 is worker i
  EXPECT_EQ(p.link_count(), 3u);
  EXPECT_DOUBLE_EQ(p.host_at(0).speed(), 2e9);

  // Worker 0 runs at host_speed * 1, worker 2 at host_speed * 2.
  EXPECT_DOUBLE_EQ(p.host_at(1).finish_time(0.0, 4e9), 2.0);
  EXPECT_DOUBLE_EQ(p.host_at(3).finish_time(1.0, 4e9), 2.0);
  // Worker 1 follows its absolute profile, not host_speed * 0.5: 1e10
  // flops in the first 10 s, the remaining 5e9 at 5e8 flops/s.
  EXPECT_DOUBLE_EQ(p.host_at(2).finish_time(0.0, 1.5e10), 20.0);
  EXPECT_DOUBLE_EQ(p.host_at(2).finish_time(10.0, 1e9), 12.0);

  // Every worker link: latency + bytes / bandwidth, in both directions.
  for (std::size_t w = 1; w <= 3; ++w) {
    EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(0), p.host_at(w), 12500), 1e-4 + 1e-4) << w;
    EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(w), p.host_at(0), 0), 1e-4) << w;
  }
  // A star has no worker-to-worker route.
  EXPECT_THROW((void)p.comm_time(p.host_at(1), p.host_at(2), 1), std::runtime_error);
}

TEST(PlatformSpec, CommentsAndBlankLinesIgnored) {
  const std::string commented = std::string("\n# only comments\n\n   \n") + kSystem +
                                "latency 1e-4  # a trailing comment\n\t\n";
  EXPECT_EQ(sweep::serialize_experiment_spec(sweep::parse_experiment_spec(commented)),
            sweep::serialize_experiment_spec(sweep::parse_experiment_spec(kSystem)));
}

TEST(PlatformSpec, MalformedProfileEntriesNameTheLine) {
  for (const char* line : {"profile1 bad", "profile1 0:fast", "profile1 0:1e9,5",
                           "profile1 0:1e9,x:1", "profile1 0:-1e9", "profile1 0:nan"}) {
    try {
      (void)sweep::parse_experiment_spec(std::string(kSystem) + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 10 ('" + std::string(line) + "')"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
