// The one textual platform input: the system keys of an experiment
// spec (sweep/experiment.hpp).  A spec is parsed and run through
// mw::run_simulation, and the workers' compute times and the run's
// makespan show the star the keys describe.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mw/simulation.hpp"
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

mw::RunResult run_spec(const std::string& text) {
  return mw::run_simulation(sweep::parse_experiment_spec(text).config);
}

TEST(PlatformSpec, WorkersRunAtTheirSpeeds) {
  // One 7.5 s task per worker (STATIC), all started at t = 0 on a free
  // network: 1.5e10 flops against host_speed 2e9.
  const mw::RunResult r = run_spec(R"(technique STAT
tasks      3
workload   constant:7.5
workers    3
host_speed 2e9
speeds     1,0.5,2
profile1   0:1e9,10:5e8
latency    0
bandwidth  inf
)");
  ASSERT_EQ(r.workers.size(), 3u);
  // Worker 0 runs at host_speed * 1, worker 2 at host_speed * 2.
  EXPECT_DOUBLE_EQ(r.workers[0].compute_time, 7.5);
  EXPECT_DOUBLE_EQ(r.workers[2].compute_time, 3.75);
  // Worker 1 follows its absolute profile, not host_speed * 0.5: 1e10
  // flops in the first 10 s, the remaining 5e9 at 5e8 flops/s.
  EXPECT_DOUBLE_EQ(r.workers[1].compute_time, 20.0);
  EXPECT_DOUBLE_EQ(r.makespan, 20.0);
}

/// One worker, one 1 s task: the makespan is two requests (the task's,
/// then the one after it) plus two replies (the chunk, then the
/// finalization) plus the second of work.
mw::RunResult one_task(const std::string& network) {
  return run_spec("technique SS\ntasks 1\nworkload constant:1\nworkers 1\n" + network);
}

TEST(PlatformSpec, LinkCostIsLatencyPlusTransfer) {
  // Requests carry 0 bytes: latency only.  Replies carry 12500 bytes
  // at 1.25e8 B/s: latency + 1e-4.
  const mw::RunResult r =
      one_task("latency 1e-4\nbandwidth 1.25e8\nrequest_bytes 0\nreply_bytes 12500\n");
  EXPECT_NEAR(r.workers[0].comm_time, 2 * 1e-4, 1e-15);
  EXPECT_NEAR(r.makespan, 1.0 + 2 * 1e-4 + 2 * (1e-4 + 1e-4), 1e-15);
}

TEST(PlatformSpec, InfiniteBandwidthCostsOnlyLatency) {
  const mw::RunResult r =
      one_task("latency 1e-3\nbandwidth inf\nrequest_bytes 1048576\nreply_bytes 1048576\n");
  EXPECT_NEAR(r.workers[0].comm_time, 2 * 1e-3, 1e-15);
  EXPECT_NEAR(r.makespan, 1.0 + 4 * 1e-3, 1e-15);
}

TEST(PlatformSpec, BadLinkValuesNameTheLine) {
  for (const char* line : {"latency -1", "latency inf", "latency nan", "bandwidth 0",
                           "bandwidth -1", "bandwidth nan"}) {
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
