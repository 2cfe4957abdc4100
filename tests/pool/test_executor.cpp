// pool::Executor: the persistent work-claiming scheduler under every
// parallel path.  Grain batching, stable slot IDs, exception
// propagation, safe re-entry, and the DLS_THREADS override.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pool/executor.hpp"

namespace {

TEST(PoolExecutor, VisitsEveryIndexExactlyOnce) {
  pool::Executor executor(4);
  std::vector<std::atomic<int>> visits(5000);
  executor.parallel_for(5000, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(PoolExecutor, ReusedAcrossCallsWithoutRespawning) {
  // The point of the pool: consecutive regions run on the same parked
  // threads.  Collect the participating thread ids over many regions;
  // the set must stay bounded by the spawned workers + the caller.
  pool::Executor executor(4);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  for (int round = 0; round < 20; ++round) {
    executor.parallel_for(64, [&](std::size_t) {
      const std::scoped_lock lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
  }
  EXPECT_LE(ids.size(), 4u);
  EXPECT_EQ(executor.slot_count(), 4u);  // 3 workers + the caller, spawned once
}

TEST(PoolExecutor, GrainsAreClaimedWhole) {
  // Grain batching: a grain of 16 indices is claimed and executed by
  // one participant, so indices within a grain share a slot.
  pool::Executor executor(4);
  constexpr std::size_t kGrain = 16;
  constexpr std::size_t kCount = 256;
  std::vector<unsigned> slot_of(kCount, ~0u);
  executor.parallel_for_slots(
      kCount, [&](std::size_t i, unsigned slot) { slot_of[i] = slot; }, /*threads=*/4, kGrain);
  for (std::size_t g = 0; g < kCount; g += kGrain) {
    for (std::size_t i = g; i < g + kGrain; ++i) {
      EXPECT_EQ(slot_of[i], slot_of[g]) << "grain at " << g << " split across slots";
    }
  }
}

TEST(PoolExecutor, SlotIdsAreStablePerThreadAcrossRegions) {
  pool::Executor executor(4);
  std::mutex mutex;
  std::map<std::thread::id, std::set<unsigned>> slots_seen;
  // run_region does not promise that the caller claims an index (the
  // workers may drain all 512 first), so the workers hold their items
  // until the caller has run one: that makes the caller's slot-0 claim
  // below deterministic.  A caller that never runs one fails the test
  // after the deadline instead of hanging it.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<bool> caller_timed_out{false};
  for (int round = 0; round < 10; ++round) {
    caller_ran.store(false);
    executor.parallel_for_slots(512, [&](std::size_t, unsigned slot) {
      if (std::this_thread::get_id() == caller) {
        caller_ran.store(true);
      } else {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!caller_ran.load() && !caller_timed_out.load()) {
          if (std::chrono::steady_clock::now() > deadline) caller_timed_out.store(true);
          std::this_thread::yield();
        }
      }
      const std::scoped_lock lock(mutex);
      slots_seen[std::this_thread::get_id()].insert(slot);
    });
  }
  ASSERT_FALSE(caller_timed_out.load()) << "the calling thread ran no item within 30 s";
  ASSERT_FALSE(slots_seen.empty());
  std::set<unsigned> all_slots;
  for (const auto& [id, slots] : slots_seen) {
    // Slot stability: one thread never observes two different IDs.
    EXPECT_EQ(slots.size(), 1u);
    EXPECT_LT(*slots.begin(), executor.slot_count());
    all_slots.insert(*slots.begin());
  }
  // IDs are also never shared between threads.
  EXPECT_EQ(all_slots.size(), slots_seen.size());
  // The calling thread is always slot 0.
  ASSERT_TRUE(slots_seen.contains(std::this_thread::get_id()));
  EXPECT_EQ(*slots_seen[std::this_thread::get_id()].begin(), 0u);
}

TEST(PoolExecutor, SerialFallbackRunsInOrderOnSlotZero) {
  pool::Executor executor(4);
  std::vector<std::size_t> order;
  executor.parallel_for_slots(
      100,
      [&](std::size_t i, unsigned slot) {
        EXPECT_EQ(slot, 0u);
        order.push_back(i);
      },
      /*threads=*/1);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(PoolExecutor, PropagatesFirstExceptionAndCancels) {
  pool::Executor executor(4);
  EXPECT_THROW(executor.parallel_for(1000,
                                     [](std::size_t i) {
                                       if (i == 137) throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  // The pool survives a failed region and keeps serving.
  std::atomic<int> count{0};
  executor.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(PoolExecutor, NestedUseOnTheSamePoolRunsInlineSerially) {
  // A region launched from inside another region of the same pool must
  // not wait for the pool's (busy) threads: it collapses to an inline
  // serial loop on the nesting thread.
  pool::Executor executor(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> inner_out_of_order{false};
  executor.parallel_for(8, [&](std::size_t) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    std::size_t expected = 0;
    executor.parallel_for(16, [&](std::size_t inner) {
      if (inner != expected++ || std::this_thread::get_id() != outer_thread) {
        inner_out_of_order.store(true);
      }
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
  EXPECT_FALSE(inner_out_of_order.load());
}

TEST(PoolExecutor, GrowsToHonorLargerRequests) {
  pool::Executor executor(2);
  EXPECT_EQ(executor.width(), 2u);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  executor.parallel_for(
      10000,
      [&](std::size_t) {
        const std::scoped_lock lock(mutex);
        ids.insert(std::this_thread::get_id());
      },
      /*threads=*/5, /*grain=*/1);
  EXPECT_EQ(executor.width(), 5u);
  EXPECT_EQ(executor.slot_count(), 5u);
  EXPECT_LE(ids.size(), 5u);
}

TEST(PoolExecutor, ReserveSpawnsSlotsUpFront) {
  pool::Executor executor(1);
  EXPECT_EQ(executor.slot_count(), 1u);
  executor.reserve(3);
  EXPECT_EQ(executor.slot_count(), 3u);
  EXPECT_EQ(executor.width(), 3u);
  executor.reserve(2);  // never shrinks
  EXPECT_EQ(executor.slot_count(), 3u);
  EXPECT_EQ(executor.width(), 3u);
}

TEST(PoolExecutor, RegionsActuallyRunConcurrently) {
  // The structural guard behind every scaling claim: a 2-participant
  // region really has two bodies in flight at once.  Index 0 (bounded-)
  // waits for index 1's thread to start; if the pool ever degenerates
  // to serial (e.g. every region falling into the inline path), index 1
  // cannot start until index 0 finishes and this fails.  Timing-free:
  // it asserts interleaving, not speed, so it holds on any core count.
  pool::Executor executor(2);
  std::atomic<bool> second_started{false};
  std::atomic<bool> overlapped{false};
  executor.parallel_for(
      2,
      [&](std::size_t i) {
        if (i == 0) {
          for (int spin = 0; spin < 4000 && !second_started.load(); ++spin) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          overlapped.store(second_started.load());
        } else {
          second_started.store(true);
        }
      },
      /*threads=*/2, /*grain=*/1);
  EXPECT_TRUE(overlapped.load());
}

TEST(PoolExecutor, SlotLimitCapsTheObservableSlots) {
  // Callers sizing per-slot state pass their size as slot_limit; a
  // region must then never hand out a slot beyond it, even when the
  // pool has more (or concurrently gains more) workers.
  pool::Executor executor(6);
  executor.reserve(6);  // slots 0..5 exist
  ASSERT_EQ(executor.slot_count(), 6u);
  std::atomic<unsigned> max_slot{0};
  std::atomic<int> count{0};
  executor.parallel_for_slots(
      5000,
      [&](std::size_t, unsigned slot) {
        unsigned seen = max_slot.load();
        while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
        }
        count.fetch_add(1);
      },
      /*threads=*/6, /*grain=*/1, /*slot_limit=*/2);
  EXPECT_EQ(count.load(), 5000);  // the cap never drops work
  EXPECT_LT(max_slot.load(), 2u);
}

TEST(PoolExecutor, DlsThreadsOverridesTheDefaultWidth) {
  const char* previous = std::getenv("DLS_THREADS");
  const std::string saved = previous != nullptr ? previous : "";
  ::setenv("DLS_THREADS", "3", 1);
  EXPECT_EQ(pool::default_thread_count(), 3u);
  const pool::Executor executor;  // width 0 = the override
  EXPECT_EQ(executor.width(), 3u);
  if (previous != nullptr) {
    ::setenv("DLS_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("DLS_THREADS");
  }
}

TEST(PoolExecutor, ZeroCountIsANoopWithNoThreadsStarted) {
  pool::Executor executor(8);
  bool called = false;
  executor.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(executor.slot_count(), 1u);  // lazy start: nothing spawned
}

}  // namespace
