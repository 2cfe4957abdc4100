// Steady-state allocation accounting for the master-worker reuse path:
// after a warm-up replica, re-running a configuration through a reused
// mw::RunContext must not allocate per chunk, per message or per worker.
// The test overrides global operator new/delete (this binary only) and
// counts.
//
// Under a sanitizer the allocator is intercepted (and GCC's
// -Wmismatched-new-delete cannot see through the override), so the
// counting machinery is compiled out there; the functional half of the
// test -- chunk counts across reused replicas -- still runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "mw/simulation.hpp"
#include "workload/task_times.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DLS_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DLS_COUNT_ALLOCS 0
#endif
#endif
#ifndef DLS_COUNT_ALLOCS
#define DLS_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

#if DLS_COUNT_ALLOCS
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#endif  // DLS_COUNT_ALLOCS

namespace {

constexpr std::size_t kChunks = 256;

mw::Config ping_pong() {
  mw::Config cfg;
  cfg.technique = dls::Kind::kSS;  // one chunk per task
  cfg.workers = 2;
  cfg.tasks = kChunks;
  cfg.workload = workload::exponential(1.0);
  cfg.params.h = 1e-4;
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.latency = 1e-6;
  cfg.bandwidth = 1e8;
  return cfg;
}

/// One replica through a reused context; returns the number of global
/// allocations it performed.
std::size_t replica(const mw::Config& cfg, mw::RunContext& context, std::size_t& chunks) {
  const std::size_t before = g_allocations.load();
  chunks = mw::run_simulation(cfg, context).chunk_count;
  return g_allocations.load() - before;
}

TEST(SteadyStateAlloc, ReusedRunContextDoesNotAllocatePerChunk) {
  const mw::Config cfg = ping_pong();
  mw::RunContext context;
  std::size_t chunks = 0;

  // Warm-up: the event queue's geometry and every buffer grow.
  (void)replica(cfg, context, chunks);
  ASSERT_EQ(chunks, kChunks);

  // Steady state: the only acceptable allocations are per replica (the
  // technique, the random source, the result's worker stats) plus a
  // small constant slack; with kChunks chunks flowing -- four messages
  // each -- anything per chunk would blow straight through the bound.
  for (int lap = 0; lap < 3; ++lap) {
    const std::size_t allocs = replica(cfg, context, chunks);
    EXPECT_EQ(chunks, kChunks);
    if (DLS_COUNT_ALLOCS) {
      EXPECT_LE(allocs, 8u) << "lap " << lap;
    }
  }
}

TEST(SteadyStateAlloc, ChangingTheNetworkDoesNotAllocatePerWorker) {
  // Replicas on one context at P = 1024, each at another latency than
  // the one before: the star is read from each Config, so no worker is
  // rebuilt on the heap and the bound above holds at any P.
  mw::Config cfg = ping_pong();
  cfg.workers = 1024;
  cfg.tasks = 4096;
  const double latencies[] = {2e-6, 3e-6, 4e-6};
  mw::RunContext context;
  std::size_t chunks = 0;

  // Warm-up: at this P the event queue's buckets settle their
  // capacities only once its width has adapted, so take two passes.
  for (int pass = 0; pass < 2; ++pass) {
    for (const double latency : latencies) {
      cfg.latency = latency;
      (void)replica(cfg, context, chunks);
    }
  }
  ASSERT_EQ(chunks, cfg.tasks);

  for (int pass = 0; pass < 2; ++pass) {
    for (const double latency : latencies) {
      cfg.latency = latency;
      const std::size_t allocs = replica(cfg, context, chunks);
      EXPECT_EQ(chunks, cfg.tasks);
      if (DLS_COUNT_ALLOCS) {
        EXPECT_LE(allocs, 8u) << "pass " << pass << ", latency " << latency;
      }
    }
  }
}

}  // namespace
