// Message semantics of the master-worker event loop, observed through
// mw::run_simulation: a message arrives after its route's transfer
// time, a blocking send is accounted as communicating, and the master
// receives requests in arrival order -- FIFO, with no idle gap, when
// they queue while it is busy.

#include <gtest/gtest.h>

#include <limits>

#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

namespace {

/// SS on a star whose every link has the given latency and bandwidth.
mw::Config star(std::size_t workers, std::size_t tasks, double task_seconds, double latency,
                double bandwidth = std::numeric_limits<double>::infinity()) {
  mw::Config cfg;
  cfg.technique = dls::Kind::kSS;
  cfg.workers = workers;
  cfg.tasks = tasks;
  cfg.workload = workload::constant(task_seconds);
  cfg.latency = latency;
  cfg.bandwidth = bandwidth;
  cfg.record_chunk_log = true;
  return cfg;
}

TEST(Messages, DeliveryWaitsForRouteLatency) {
  // Request 0 -> 0.5, reply 0.5 -> 1.0, execute 1.0 -> 2.0, request
  // 2.0 -> 2.5, finalization 2.5 -> 3.0.
  const mw::RunResult r = mw::run_simulation(star(1, 1, 1.0, 0.5));
  ASSERT_EQ(r.chunk_log.size(), 1u);
  EXPECT_DOUBLE_EQ(r.chunk_log[0].issued_at, 0.5);  // served when the request arrives
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(Messages, TransferTimeIncludesBandwidth) {
  mw::Config cfg = star(1, 1, 1.0, 0.5, 1e6);
  cfg.request_bytes = 1000000;  // 1 MB at 1 MB/s -> 1 s on top of the latency
  const mw::RunResult r = mw::run_simulation(cfg);
  EXPECT_DOUBLE_EQ(r.chunk_log[0].issued_at, 1.5);
}

TEST(Messages, BlockingSendAccountsCommunicating) {
  // Both requests hold the worker for their 0.5 s transfer; both
  // replies (chunk and finalization) are 0.5 s of waiting.
  const mw::RunResult r = mw::run_simulation(star(1, 1, 1.0, 0.5));
  const mw::WorkerStats& w = r.workers[0];
  EXPECT_DOUBLE_EQ(w.comm_time, 1.0);
  EXPECT_DOUBLE_EQ(w.wait_time, 1.0);
  EXPECT_DOUBLE_EQ(w.compute_time, 1.0);
}

TEST(Messages, QueuedRequestsServedFifoWithoutIdleGap) {
  // All three first requests arrive at t = 0 while the master spends
  // h = 1 s per chunk: the two that queue are received as soon as the
  // master is free, in arrival order.
  mw::Config cfg = star(3, 3, 10.0, 0.0);
  cfg.params.h = 1.0;
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  const mw::RunResult r = mw::run_simulation(cfg);
  ASSERT_EQ(r.chunk_log.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.chunk_log[i].pe, i);
    EXPECT_DOUBLE_EQ(r.chunk_log[i].issued_at, static_cast<double>(i + 1));
  }
  EXPECT_DOUBLE_EQ(r.master_busy_time, 3.0);
}

TEST(Messages, RequestsServedInArrivalOrderNotWorkerOrder) {
  // Worker 0 runs at a quarter speed: worker 1's later requests arrive
  // first and are served first.
  mw::Config cfg = star(2, 4, 1.0, 0.0);
  cfg.worker_speed_factors = {0.25, 1.0};
  const mw::RunResult r = mw::run_simulation(cfg);
  ASSERT_EQ(r.chunk_log.size(), 4u);
  const std::size_t expected_pe[] = {0, 1, 1, 1};
  const double expected_at[] = {0.0, 0.0, 1.0, 2.0};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.chunk_log[i].pe, expected_pe[i]) << "chunk " << i;
    EXPECT_DOUBLE_EQ(r.chunk_log[i].issued_at, expected_at[i]) << "chunk " << i;
  }
}

}  // namespace
