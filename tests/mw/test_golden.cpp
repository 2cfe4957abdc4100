// Golden-value regression tests: fixed-seed simulations must keep
// producing bit-identical results (makespan, chunk counts, chunk logs,
// per-worker accounting) across refactors of the serve path.
//
// The constants were recorded from the prefix-sum serve-path
// implementation (chunk nominal seconds are prefix-sum differences; the
// earlier per-task-summation implementation agreed on every chunk
// decision and matched constant-workload runs bit-for-bit, with
// exponential-workload makespans within a few ulps).  If a change moves
// any of these values, it changed simulation semantics -- regenerate
// the constants only for a deliberate, documented semantic change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Hash of the chunk log's scheduling decisions (pe, first, size,
/// issue time).  work_seconds is checked elsewhere against the
/// prefix-sum reconstruction (test_resilience.cpp).
std::uint64_t chunk_log_hash(const mw::RunResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const mw::ChunkLogEntry& e : r.chunk_log) {
    h = fnv1a(h, e.pe);
    h = fnv1a(h, e.first);
    h = fnv1a(h, e.size);
    h = fnv1a(h, bits(e.issued_at));
  }
  return h;
}

std::uint64_t workers_hash(const mw::RunResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const mw::WorkerStats& w : r.workers) {
    h = fnv1a(h, bits(w.compute_time));
    h = fnv1a(h, w.tasks);
    h = fnv1a(h, w.chunks);
  }
  return h;
}

struct Golden {
  const char* name;
  double makespan;
  std::size_t chunks;
  double total_nominal_work;
  std::size_t tasks_reclaimed;
  std::uint64_t log_hash;
  std::uint64_t workers_hash;
};

void expect_golden(const mw::Config& cfg, const Golden& golden) {
  SCOPED_TRACE(golden.name);
  const mw::RunResult fresh = mw::run_simulation(cfg);

  // Exact golden values.
  EXPECT_EQ(bits(fresh.makespan), bits(golden.makespan));
  EXPECT_EQ(fresh.chunk_count, golden.chunks);
  EXPECT_EQ(bits(fresh.total_nominal_work), bits(golden.total_nominal_work));
  EXPECT_EQ(fresh.tasks_reclaimed, golden.tasks_reclaimed);
  EXPECT_EQ(chunk_log_hash(fresh), golden.log_hash);
  EXPECT_EQ(workers_hash(fresh), golden.workers_hash);

  // A reused context must not change anything: run twice through the
  // same RunContext (the second run hits the cached engine).
  mw::RunContext context;
  (void)mw::run_simulation(cfg, context);
  const mw::RunResult reused = mw::run_simulation(cfg, context);
  EXPECT_EQ(bits(reused.makespan), bits(golden.makespan));
  EXPECT_EQ(reused.chunk_count, golden.chunks);
  EXPECT_EQ(chunk_log_hash(reused), golden.log_hash);
  EXPECT_EQ(workers_hash(reused), golden.workers_hash);
}

TEST(Golden, Fac2ExponentialWithChunkLog) {
  mw::Config cfg;
  cfg.technique = Kind::kFAC2;
  cfg.workers = 8;
  cfg.tasks = 2048;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 1234;
  cfg.record_chunk_log = true;
  expect_golden(cfg, Golden{"fac2_exp", 0x1.fe3b1f8f61b35p+7, 72, 0x1.fc56dbd646e33p+10, 0,
                            0x745c4de99ad4ed3full, 0xedc235d51321004bull});
}

TEST(Golden, BoldRand48) {
  mw::Config cfg;
  cfg.technique = Kind::kBOLD;
  cfg.workers = 64;
  cfg.tasks = 8192;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 777;
  cfg.use_rand48 = true;
  expect_golden(cfg, Golden{"bold_rand48", 0x1.0a33e56868c4bp+7, 926, 0x1.04d996e5d8ec7p+13, 0,
                            kFnvBasis, 0x2861a90face643edull});
}

TEST(Golden, GssWithWorkerFailure) {
  mw::Config cfg;
  cfg.technique = Kind::kGSS;
  cfg.workers = 4;
  cfg.tasks = 400;
  cfg.workload = workload::constant(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 0.0;
  cfg.params.h = 0.01;
  cfg.worker_failure_times = {30.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::infinity()};
  cfg.record_chunk_log = true;
  // Bit-identical with the pre-refactor serve path (constant workload:
  // prefix-sum differences are exact).
  expect_golden(cfg, Golden{"gss_failure", 0x1.0c0000000029ap+7, 21, 0x1.9p+8, 100,
                            0x579f40d1ef151fc4ull, 0x99cc98eaaffb7c3dull});
}

TEST(Golden, AwfbTimestepping) {
  mw::Config cfg;
  cfg.technique = Kind::kAWFB;
  cfg.workers = 4;
  cfg.tasks = 200;
  cfg.timesteps = 3;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.02;
  cfg.seed = 99;
  expect_golden(cfg, Golden{"awfb_steps", 0x1.31e258a6c31c2p+7, 72, 0x1.2b6d99c87004fp+9, 0,
                            kFnvBasis, 0x791333aff4e33b06ull});
}

TEST(Golden, TssSimulatedOverheadRealNetwork) {
  mw::Config cfg;
  cfg.technique = Kind::kTSS;
  cfg.workers = 4;
  cfg.tasks = 1000;
  cfg.workload = workload::constant(0.002);
  cfg.params.mu = 0.002;
  cfg.params.sigma = 0.0;
  cfg.params.h = 1e-4;
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.latency = 2e-6;
  cfg.bandwidth = 100e6;
  cfg.record_chunk_log = true;
  expect_golden(cfg, Golden{"tss_simovh", 0x1.026d932b6b691p-1, 15, 0x1.0000000000003p+1, 0,
                            0xa24d83018aec716bull, 0xd9bcc89e34826c04ull});
}

TEST(Golden, GssSimulatedOverheadRealNetwork) {
  // Pins the event-core hot path end to end: simulated overhead (the
  // master's serve suspension), a real star network (route-cost
  // lookups), and the fused compute+send path on every chunk.
  // Recorded from the binary-heap engine before the calendar-queue
  // overhaul; the overhaul must keep it bit-identical.
  mw::Config cfg;
  cfg.technique = Kind::kGSS;
  cfg.workers = 16;
  cfg.tasks = 4096;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 20170529;
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.latency = 2e-6;
  cfg.bandwidth = 1e8;
  cfg.record_chunk_log = true;
  expect_golden(cfg, Golden{"gss_net", 0x1.13df8aacdf8afp+8, 96, 0x1.031e4d50c4528p+12, 0,
                            0x99627792392a01d1ull, 0x3690211110f30ec4ull});
}

TEST(Golden, SelfSchedulingExponential) {
  mw::Config cfg;
  cfg.technique = Kind::kSS;
  cfg.workers = 16;
  cfg.tasks = 4096;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 31337;
  expect_golden(cfg, Golden{"ss_exp", 0x1.00fa824714fap+8, 4096, 0x1.000f7c459c1e1p+12, 0,
                            kFnvBasis, 0xa0f8c3386bfa0d80ull});
}

// ----------------------------------------------------------------------
// Full pins: every RunResult field.  Scalars are compared bit for bit;
// the per-worker stats and both logs are compared through an FNV-1a
// digest over every field.  Recorded from the coroutine-actor engine
// that preceded the direct event loop; each case drives a serve-path
// branch the pins above do not reach.

/// Every field of every WorkerStats entry.
std::uint64_t all_workers_hash(const mw::RunResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const mw::WorkerStats& w : r.workers) {
    h = fnv1a(h, bits(w.compute_time));
    h = fnv1a(h, bits(w.wait_time));
    h = fnv1a(h, bits(w.comm_time));
    h = fnv1a(h, w.tasks);
    h = fnv1a(h, w.chunks);
    h = fnv1a(h, w.failed ? 1 : 0);
  }
  return h;
}

/// Every field of the chunk log, then every field of the range log.
std::uint64_t logs_hash(const mw::RunResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const mw::ChunkLogEntry& e : r.chunk_log) {
    h = fnv1a(h, e.pe);
    h = fnv1a(h, e.first);
    h = fnv1a(h, e.size);
    h = fnv1a(h, bits(e.issued_at));
    h = fnv1a(h, bits(e.work_seconds));
  }
  for (const mw::ServedRangeEntry& e : r.range_log) {
    h = fnv1a(h, e.chunk);
    h = fnv1a(h, e.first);
    h = fnv1a(h, e.count);
  }
  return h;
}

struct Pin {
  const char* name;
  double makespan;
  double total_nominal_work;
  std::size_t chunks;
  double master_busy_time;
  std::size_t tasks_reclaimed;
  std::uint64_t workers_hash;
  std::uint64_t logs_hash;
};

void expect_result(const mw::RunResult& r, const Pin& pin) {
  EXPECT_EQ(bits(r.makespan), bits(pin.makespan));
  EXPECT_EQ(bits(r.total_nominal_work), bits(pin.total_nominal_work));
  EXPECT_EQ(r.chunk_count, pin.chunks);
  EXPECT_EQ(bits(r.master_busy_time), bits(pin.master_busy_time));
  EXPECT_EQ(r.tasks_reclaimed, pin.tasks_reclaimed);
  EXPECT_EQ(all_workers_hash(r), pin.workers_hash);
  EXPECT_EQ(logs_hash(r), pin.logs_hash);
}

void expect_pin(const mw::Config& cfg, const Pin& pin) {
  SCOPED_TRACE(pin.name);
  expect_result(mw::run_simulation(cfg), pin);
  mw::RunContext context;
  (void)mw::run_simulation(cfg, context);
  expect_result(mw::run_simulation(cfg, context), pin);
}

mw::Config logged(dls::Kind kind, std::size_t workers, std::size_t tasks,
                  std::shared_ptr<const workload::TaskTimeGenerator> times, double sigma,
                  double h) {
  mw::Config cfg;
  cfg.technique = kind;
  cfg.workers = workers;
  cfg.tasks = tasks;
  cfg.workload = std::move(times);
  cfg.params.mu = 1.0;
  cfg.params.sigma = sigma;
  cfg.params.h = h;
  cfg.record_chunk_log = true;
  return cfg;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Golden, SendDelayRoundsToZero) {
  // The makespan reaches ~32768 s, where now + 1e-12 == now: from
  // there on every 1e-12 s transfer completes without the sender
  // waiting, and its delivery is an event of its own.
  mw::Config cfg = logged(Kind::kSS, 2, 65536, workload::exponential(1.0), 1.0, 0.5);
  cfg.seed = 2017;
  expect_pin(cfg, Pin{"ss_p2_rounding", 0x1.ff73d6d46e181p+14, 0x1.ff70562376b86p+15, 65536,
                      0x0p+0, 0, 0xd4fc8c64dfbec314ull, 0xd3a22549fc3413d9ull});
}

TEST(Golden, MoreWorkersThanTasks) {
  mw::Config cfg = logged(Kind::kFAC2, 16, 5, workload::exponential(1.0), 1.0, 0.5);
  cfg.seed = 5;
  cfg.latency = 2e-6;
  cfg.bandwidth = 1e8;
  expect_pin(cfg, Pin{"fac2_p_gt_n", 0x1.b937b65d60ac1p+0, 0x1.30b2634e60db3p+2, 5, 0x0p+0, 0,
                      0xa02a51e9bb5f5a2dull, 0xe84549e971fdbf0dull});
}

TEST(Golden, SameTimeTies) {
  // Constant task times: every worker finishes at the same instant, so
  // the (time, seq) tie-break orders every request.
  const mw::Config cfg = logged(Kind::kSS, 64, 4096, workload::constant(1.0), 0.0, 0.5);
  expect_pin(cfg, Pin{"ss_constant_ties", 0x1.0000000004654p+6, 0x1p+12, 4096, 0x0p+0, 0,
                      0xd5068ae2a6943281ull, 0x1c94f83673da7e04ull});
}

TEST(Golden, StoppedProfileWithFailStop) {
  // Worker 1 stops from t = 10 to t = 60 and fails at 30, inside the
  // stopped window; worker 2 stops for good at t = 5 (its chunk can
  // never finish) and fails at 40.
  mw::Config cfg = logged(Kind::kFAC2, 4, 400, workload::constant(1.0), 0.0, 0.01);
  cfg.worker_speed_profiles = {simx::SpeedProfile{{0.0}, {1e9}},
                               simx::SpeedProfile{{0.0, 10.0, 60.0}, {1e9, 0.0, 1e9}},
                               simx::SpeedProfile{{0.0, 5.0}, {1e9, 0.0}},
                               simx::SpeedProfile{{0.0}, {1e9}}};
  cfg.worker_failure_times = {kInf, 30.0, 40.0, kInf};
  expect_pin(cfg, Pin{"fac2_profile_stop_fail", 0x1.90000000004edp+7, 0x1.9p+8, 32, 0x0p+0, 100,
                      0x9d4465005b0cfd33ull, 0xb4a6fb7ec1c2c373ull});
}

TEST(Golden, HeterogeneousSpeedsAf) {
  mw::Config cfg = logged(Kind::kAF, 8, 4096, workload::exponential(1.0), 1.0, 0.5);
  cfg.worker_speed_factors = {1.0, 0.5, 2.0, 1.0, 0.25, 1.5, 1.0, 0.75};
  cfg.seed = 4242;
  expect_pin(cfg, Pin{"af_heterogeneous", 0x1.b89492aa183e8p+9, 0x1.f258504477417p+11, 96,
                      0x0p+0, 0, 0x0e44442107ba4cdbull, 0xf794fc7ce3f39a7bull});
}

TEST(Golden, FailStopWhileWaitingAndMidChunk) {
  // Simulated overhead serializes the master: worker 0's fail-stop at
  // t = 5 passes while it waits for a reply, and worker 2 dies inside
  // a chunk at t = 30, after the survivors parked on an empty pool --
  // its reclaimed tasks go to them.
  mw::Config cfg = logged(Kind::kGSS, 4, 64, workload::constant(1.0), 0.0, 1.0);
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.worker_failure_times = {5.0, kInf, 30.0, kInf};
  expect_pin(cfg, Pin{"gss_fail_wait_midchunk", 0x1.00000000009e4p+5, 0x1p+6, 16, 0x1p+4, 17,
                      0xdd9fbd0d6f88753eull, 0x1bd8c9f3e06bf802ull});
}

// ----------------------------------------------------------------------
// Ordering corners of the serve path: each case drives an order the
// event queue's one-event register and the waiting master's direct
// serve must keep.  Recorded before either existed, with every
// RunResult field, avg_wasted_time included.

void expect_full_pin(const mw::Config& cfg, const Pin& pin, double avg_wasted_time) {
  expect_pin(cfg, pin);
  EXPECT_EQ(bits(mw::run_simulation(cfg).avg_wasted_time), bits(avg_wasted_time));
}

TEST(Golden, RequestsArriveInsideTheReplyWindow) {
  // Constant task times tie every finish time, and a 1e-3 s latency
  // holds the master in each reply send while the other workers'
  // requests arrive and queue -- some at the reply's arrival instant.
  mw::Config cfg = logged(Kind::kSS, 8, 256, workload::constant(1.0), 0.0, 0.5);
  cfg.latency = 1e-3;
  expect_full_pin(cfg,
                  Pin{"ss_reply_window", 0x1.00a3d70a3d70dp+5, 0x1p+8, 256, 0x0p+0, 0,
                      0xf86f68cc83ade9bdull, 0x49f56c63767c991full},
                  0x1.0147ae147ae1ap+4);
}

TEST(Golden, ZeroDelayMessages) {
  // Every send completes at its own instant: each delivery is an event
  // of its own, at the time it is pushed.
  mw::Config cfg = logged(Kind::kFAC2, 4, 512, workload::exponential(1.0), 1.0, 0.5);
  cfg.latency = 0.0;
  cfg.bandwidth = kInf;
  cfg.seed = 808;
  expect_full_pin(cfg,
                  Pin{"fac2_zero_delay", 0x1.06181b073de1ap+7, 0x1.043afe16c606fp+9, 32, 0x0p+0,
                      0, 0x350c1efe722b4498ull, 0xcace30825e9f43feull},
                  0x1.3ba39e0efb56p+2);
}

TEST(Golden, ZeroDelayMessagesWithSimulatedOverhead) {
  // Free links, but the master computes h per chunk: its reply blocks
  // while every request is delivered at its own instant.
  mw::Config cfg = logged(Kind::kSS, 4, 128, workload::exponential(1.0), 1.0, 0.01);
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.latency = 0.0;
  cfg.bandwidth = kInf;
  cfg.seed = 818;
  expect_full_pin(cfg,
                  Pin{"ss_zero_delay_simovh", 0x1.3021e33e47e5cp+5, 0x1.1bb3c49d0fd13p+7, 128,
                      0x1.47ae147ae15c3p+0, 0, 0xa017ec768108d395ull, 0x8f1856da469b1de1ull},
                  0x1.46e1ea1381494p+1);
}

TEST(Golden, RequestsQueueAtABusyMaster) {
  // Simulated overhead keeps the master computing h per chunk, so
  // requests that arrive meanwhile are served first in, first out.
  mw::Config cfg = logged(Kind::kSS, 8, 512, workload::exponential(1.0), 1.0, 0.05);
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.seed = 909;
  expect_full_pin(cfg,
                  Pin{"ss_busy_master", 0x1.0abc58fc81b9dp+6, 0x1.e591754ccad49p+8, 512,
                      0x1.99999999998e4p+4, 0, 0xa67466d60e8c43eaull, 0x0df43e5ee920be19ull},
                  0x1.7f39e561c4f8ap+2);
}

TEST(Golden, FailStopMidChunk) {
  // Worker 1 dies at t = 40 inside its first 128-task chunk.
  mw::Config cfg = logged(Kind::kFAC2, 4, 1024, workload::exponential(1.0), 1.0, 0.5);
  cfg.worker_failure_times = {kInf, 40.0, kInf, kInf};
  cfg.seed = 1010;
  expect_full_pin(cfg,
                  Pin{"fac2_fail_mid_chunk", 0x1.49ac6570db5ap+8, 0x1.eded28149a631p+9, 36,
                      0x0p+0, 128, 0x943de0007a5a649eull, 0xf866215a672f7adbull},
                  0x1.34d7459a38a51p+6);
}

TEST(Golden, SpeedProfiles) {
  mw::Config cfg = logged(Kind::kAF, 4, 2048, workload::exponential(1.0), 1.0, 0.5);
  cfg.worker_speed_profiles = {simx::SpeedProfile{{0.0, 20.0, 50.0}, {1e9, 5e8, 2e9}},
                               simx::SpeedProfile{{0.0}, {1e9}},
                               simx::SpeedProfile{{0.0, 30.0, 35.0}, {1e9, 0.0, 1e9}},
                               simx::SpeedProfile{{0.0}, {2e9}}};
  cfg.seed = 1111;
  expect_full_pin(cfg,
                  Pin{"af_speed_profiles", 0x1.7a9030d7526dcp+8, 0x1.fb5a258a3da69p+10, 46,
                      0x0p+0, 0, 0x1bafca1497a68787ull, 0x541c4a530ae252caull},
                  0x1.f24dcd4802c78p+4);
}

TEST(Golden, ThreeTimesteps) {
  // Workers park at the end of each step and are served first in the
  // next one.
  mw::Config cfg = logged(Kind::kAWFC, 4, 300, workload::exponential(1.0), 1.0, 0.02);
  cfg.timesteps = 3;
  cfg.latency = 1e-4;
  cfg.seed = 1212;
  expect_full_pin(cfg,
                  Pin{"awfc_timesteps", 0x1.c560b2cf913aep+7, 0x1.bf5cce32226d1p+9, 80, 0x0p+0,
                      0, 0x1ae3acf8e9fd47e4ull, 0xce101cb00e7c995cull},
                  0x1.b42c5a8ee6e03p+1);
}

}  // namespace
