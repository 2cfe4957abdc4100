// Golden pins for the hagerup direct simulator (no message passing and
// no simx engine: the workers' next-free times live in a tournament
// tree): fixed-seed chunk sequences and makespans must stay
// bit-identical across scheduler and workload-layer refactors.  The
// SelfScheduling/Bold constants were recorded before the simx
// calendar-queue overhaul; the rest were recorded from the
// std::priority_queue worker queue the tournament tree replaced.  Both
// simulators draw task times through the same workload layer, so these
// pins also freeze the RNG stream and the prefix accounting.
//
// The tree must pop workers in exactly the heap's (time, worker) order,
// so the pins cover the shapes where that order is delicate: P = 1, a
// power of two and a non-power of two, constant workloads where every
// finish time ties and the worker index decides every pop (with inline
// and with analytic overhead), and P > n, where most workers retire
// without a single chunk.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "hagerup/simulator.hpp"
#include "workload/task_times.hpp"

namespace {

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

std::uint64_t chunk_log_hash(const hagerup::RunResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const hagerup::ChunkLogEntry& e : r.chunk_log) {
    h = fnv1a(h, e.pe);
    h = fnv1a(h, e.first);
    h = fnv1a(h, e.size);
    h = fnv1a(h, bits(e.issued_at));
    h = fnv1a(h, bits(e.work_seconds));
  }
  return h;
}

hagerup::Config pinned_config(dls::Kind kind, std::size_t pes = 16) {
  hagerup::Config cfg;
  cfg.technique = kind;
  cfg.pes = pes;
  cfg.tasks = 4096;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.2;
  cfg.seed = 4242;
  cfg.charge_overhead_inline = true;  // the accounting these pins were taken with
  cfg.record_chunk_log = true;
  return cfg;
}

struct Golden {
  double makespan;
  std::size_t chunks;
  double total_work;
  std::uint64_t log_hash;
};

void expect_golden(const hagerup::Config& cfg, const Golden& golden) {
  const hagerup::RunResult fresh = hagerup::run(cfg);
  EXPECT_EQ(bits(fresh.makespan), bits(golden.makespan));
  EXPECT_EQ(fresh.chunk_count, golden.chunks);
  EXPECT_EQ(bits(fresh.total_work), bits(golden.total_work));
  EXPECT_EQ(chunk_log_hash(fresh), golden.log_hash);

  // Reusing a RunContext must not perturb a single bit.
  hagerup::RunContext context;
  (void)hagerup::run(cfg, context);
  const hagerup::RunResult reused = hagerup::run(cfg, context);
  EXPECT_EQ(bits(reused.makespan), bits(golden.makespan));
  EXPECT_EQ(reused.chunk_count, golden.chunks);
  EXPECT_EQ(chunk_log_hash(reused), golden.log_hash);
}

TEST(HagerupGolden, SelfSchedulingExponential) {
  expect_golden(pinned_config(dls::Kind::kSS),
                Golden{0x1.319bc6053f3f6p+8, 4096, 0x1.f7e3247d6d8e4p+11,
                       0xd7fe86f630fba515ull});
}

TEST(HagerupGolden, BoldExponential) {
  expect_golden(pinned_config(dls::Kind::kBOLD),
                Golden{0x1.023b4f08a97d9p+8, 305, 0x1.f7e3247d6d8e4p+11,
                       0x26c3a431e3de477aull});
}

TEST(HagerupGolden, SelfSchedulingSingleWorker) {
  expect_golden(pinned_config(dls::Kind::kSS, 1),
                Golden{0x1.2f24c571e9e05p+12, 4096, 0x1.f7e3247d6d8e4p+11,
                       0x420a5a646aed916aull});
}

TEST(HagerupGolden, Fac2TwoWorkers) {
  expect_golden(pinned_config(dls::Kind::kFAC2, 2),
                Golden{0x1.f88e34aa14cf8p+10, 24, 0x1.f7e3247d6d8e4p+11,
                       0x442c28563048549full});
}

TEST(HagerupGolden, BoldThousandWorkers) {
  expect_golden(pinned_config(dls::Kind::kBOLD, 1000),
                Golden{0x1.87b6f70e5b6c4p+3, 4096, 0x1.f7e3247d6d8e4p+11,
                       0x460d1769c6c8b5ccull});
}

TEST(HagerupGolden, SelfScheduling1024Workers) {
  expect_golden(pinned_config(dls::Kind::kSS, 1024),
                Golden{0x1.8496fc0d1aceap+3, 4096, 0x1.f7e3247d6d8e4p+11,
                       0xe6a9efda956a2903ull});
}

// constant:1 tasks: every finish time ties in every round, so the
// worker tie-break alone decides the pop order.
hagerup::Config tied_config(bool charge_overhead_inline) {
  hagerup::Config cfg = pinned_config(dls::Kind::kSS, 12);
  cfg.tasks = 1000;
  cfg.workload = workload::constant(1.0);
  cfg.params.sigma = 0.0;
  cfg.charge_overhead_inline = charge_overhead_inline;
  return cfg;
}

TEST(HagerupGolden, ConstantTiesInlineOverhead) {
  expect_golden(tied_config(true),
                Golden{0x1.933333333333ep+6, 1000, 0x1.f4p+9,
                       0xef058404ae0beb63ull});
}

TEST(HagerupGolden, ConstantTiesAnalyticOverhead) {
  expect_golden(tied_config(false),
                Golden{0x1.5p+6, 1000, 0x1.f4p+9,
                       0x7fe683b2bfe46a3bull});
}

TEST(HagerupGolden, SelfSchedulingMoreWorkersThanTasks) {
  hagerup::Config cfg = pinned_config(dls::Kind::kSS, 64);
  cfg.tasks = 40;
  expect_golden(cfg,
                Golden{0x1.389a87b79eb2ap+2, 40, 0x1.6009743d51cb1p+5,
                       0x58095978645570e3ull});
}

}  // namespace
