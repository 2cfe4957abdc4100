// check/dist.hpp and check/net.hpp: the distributed-sweep invariants.
// Each check must pass on a clean artifact and name the violation when
// one is injected -- these are the auditors CI runs over the chaos
// job's merged output and lease-event log.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/dist.hpp"
#include "check/net.hpp"
#include "dist/protocol.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"

namespace {

sweep::Grid test_grid() {
  return sweep::parse_grid(
      "workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n"
      "sweep technique SS GSS TSS\nsweep workers 2 4\n");  // 6 cells
}

std::vector<std::string> merged_lines(const sweep::Grid& grid) {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(grid, {}, out);
  std::vector<std::string> lines;
  std::istringstream is(out.str());
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

dist::LeaseEvent event(std::size_t seq, const char* kind,
                       std::size_t worker = dist::LeaseEvent::npos,
                       std::size_t stripe = dist::LeaseEvent::npos,
                       std::size_t attempt = dist::LeaseEvent::npos) {
  dist::LeaseEvent out;
  out.seq = seq;
  out.kind = kind;
  out.worker = worker;
  out.stripe = stripe;
  out.attempt = attempt;
  return out;
}

TEST(MergedUnique, PassesCleanOutputAndCatchesDuplicates) {
  const sweep::Grid grid = test_grid();
  std::vector<std::string> lines = merged_lines(grid);
  EXPECT_EQ(check::check_merged_unique_cells(lines), std::nullopt);

  lines.push_back(lines[2]);  // a double-counted retry
  const auto violation = check::check_merged_unique_cells(lines);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("twice"), std::string::npos);
}

TEST(MergedUnique, CatchesTornLines) {
  std::vector<std::string> lines = merged_lines(test_grid());
  lines.back() = lines.back().substr(0, lines.back().size() / 2);
  const auto violation = check::check_merged_unique_cells(lines);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("not a complete record"), std::string::npos);
}

TEST(MergedComplete, PassesFullGridAndCatchesLostWork) {
  const sweep::Grid grid = test_grid();
  std::vector<std::string> lines = merged_lines(grid);
  EXPECT_EQ(check::check_merged_complete(grid, lines), std::nullopt);

  // A reclaimed lease silently losing one cell must be caught.
  lines.erase(lines.begin() + 3);
  const auto violation = check::check_merged_complete(grid, lines);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("missing"), std::string::npos);
}

TEST(LeaseExclusivity, PassesACleanRun) {
  const std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0),        event(1, "spawn", 1),
      event(2, "ready", 0),        event(3, "lease", 0, 0, 0),
      event(4, "ready", 1),        event(5, "lease", 1, 1, 0),
      event(6, "done", 0, 0, 0),   event(7, "lease", 0, 2, 0),
      event(8, "done", 1, 1, 0),   event(9, "done", 0, 2, 0),
      event(10, "complete"),
  };
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
}

TEST(LeaseExclusivity, PassesAReclaimRetryRun) {
  std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0),          event(1, "spawn", 1),
      event(2, "ready", 0),          event(3, "lease", 0, 0, 0),
      event(4, "ready", 1),          event(5, "lease", 1, 1, 0),
      event(6, "reclaim", 0, 0, 0),  event(7, "dead", 0),
      event(8, "retry", dist::LeaseEvent::npos, 0, 1),
      event(9, "done", 1, 1, 0),     event(10, "lease", 1, 0, 1),
      event(11, "done", 1, 0, 1),    event(12, "complete"),
  };
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
}

TEST(LeaseExclusivity, CatchesDoubleLease) {
  // Stripe 0 leased to worker 1 while worker 0 still holds it.
  const std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0), event(1, "spawn", 1), event(2, "ready", 0),
      event(3, "lease", 0, 0, 0), event(4, "ready", 1), event(5, "lease", 1, 0, 1),
  };
  const auto violation = check::check_lease_exclusivity(events);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("two live workers"), std::string::npos);
}

TEST(LeaseExclusivity, CatchesLeaseToADeadWorker) {
  const std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0), event(1, "dead", 0), event(2, "lease", 0, 0, 0),
  };
  EXPECT_TRUE(check::check_lease_exclusivity(events).has_value());
}

TEST(LeaseExclusivity, CatchesADeathThatLeaksItsLease) {
  const std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0), event(1, "lease", 0, 0, 0), event(2, "dead", 0),
  };
  const auto violation = check::check_lease_exclusivity(events);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("never reclaimed"), std::string::npos);
}

TEST(LeaseExclusivity, CatchesCompletionWithALeaseStillHeld) {
  const std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0), event(1, "lease", 0, 0, 0), event(2, "complete"),
  };
  EXPECT_TRUE(check::check_lease_exclusivity(events).has_value());
}

TEST(LeaseExclusivity, SeqResetMarksACoordinatorRestart) {
  // The events file is appended across coordinator runs; a seq moving
  // backward starts a fresh replay instead of flagging stale leases.
  const std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0), event(1, "lease", 0, 0, 0),  // run 1, killed here
      event(0, "spawn", 0), event(1, "adopt"),           // run 2 from scratch
      event(2, "lease", 0, 1, 0), event(3, "done", 0, 1, 0), event(4, "complete"),
  };
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
}

TEST(HelloBeforeLease, CatchesALeaseToASpawnedWorkerBeforeItsHello) {
  // A worker the coordinator forked itself (spawn without detail) owes
  // a HELLO exactly like an accepted one.
  const std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0), event(1, "ready", 0), event(2, "lease", 0, 0, 0),
  };
  const auto violation = check::check_hello_before_lease(events);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("before its HELLO"), std::string::npos);
}

TEST(HelloBeforeLease, CleanCoordinateLogPassesEveryTransportCheck) {
  // The shape of a `coordinate` log: spawned workers HELLO and READY
  // before their leases, and every lease ends in a done.
  const std::vector<dist::LeaseEvent> events = {
      event(0, "spawn", 0),       event(1, "spawn", 1),
      event(2, "hello", 0),       event(3, "ready", 0),
      event(4, "hello", 1),       event(5, "ready", 1),
      event(6, "lease", 0, 0, 0), event(7, "lease", 1, 1, 0),
      event(8, "done", 0, 0, 0),  event(9, "done", 1, 1, 0),
      event(10, "complete"),
  };
  EXPECT_EQ(check::check_hello_before_lease(events), std::nullopt);
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
}

}  // namespace
