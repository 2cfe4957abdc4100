// pool::Executor::parallel_for as a plain parallel loop: results that do
// not depend on the thread count, grain edge cases, in-grain
// cancellation on failure, and the default width.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pool/executor.hpp"

namespace {

TEST(PoolParallelFor, ResultsIndependentOfThreadCount) {
  pool::Executor executor(4);
  auto run = [&](unsigned threads) {
    std::vector<double> out(500);
    executor.parallel_for(
        500, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; }, threads);
    return out;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(4), run(16));
}

TEST(PoolParallelFor, GrainLargerThanCountStillCovers) {
  pool::Executor executor(4);
  std::atomic<int> count{0};
  executor.parallel_for(10, [&](std::size_t) { count.fetch_add(1); }, 4, /*grain=*/100);
  EXPECT_EQ(count.load(), 10);
}

TEST(PoolParallelFor, FailureCancelsWithinAGrain) {
  // Regression: the failed flag used to be checked only when a thread
  // claimed a new grain, so a failing sweep kept simulating up to
  // grain-1 extra bodies per thread.  Two threads, one grain each: the
  // first body of thread A waits until thread B's grain is underway and
  // then throws; B must stop long before finishing its 64-body grain.
  pool::Executor executor(2);
  constexpr std::size_t kGrain = 64;
  std::atomic<bool> second_grain_started{false};
  std::atomic<int> bodies_after_failure{0};
  std::atomic<bool> failure_thrown{false};

  EXPECT_THROW(
      executor.parallel_for(
          2 * kGrain,
          [&](std::size_t i) {
            if (i == 0) {
              // Wait (bounded) for the other thread to enter its grain.
              for (int spin = 0; spin < 2000 && !second_grain_started.load(); ++spin) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              failure_thrown.store(true);
              throw std::runtime_error("boom");
            }
            if (i >= kGrain) {
              second_grain_started.store(true);
              if (failure_thrown.load()) bodies_after_failure.fetch_add(1);
              // Give the failing thread ample time to set the flag.
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          },
          /*threads=*/2, /*grain=*/kGrain),
      std::runtime_error);

  // Without the in-grain check the second thread runs all 64 bodies,
  // ~63 of them after the failure.  With it, it stops within a few.
  EXPECT_LE(bodies_after_failure.load(), 8);
}

TEST(PoolParallelFor, ManyMoreTasksThanThreads) {
  pool::Executor executor(4);
  std::atomic<std::int64_t> sum{0};
  executor.parallel_for(100000, [&](std::size_t i) {
    sum.fetch_add(static_cast<std::int64_t>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 100000ll * 99999ll / 2);
}

TEST(PoolParallelFor, DefaultThreadCountIsPositive) {
  EXPECT_GE(pool::default_thread_count(), 1u);
}

}  // namespace
