// CalendarQueue property tests: the calendar must pop the exact
// (time, seq) total order a binary heap pops -- not an approximation of
// it.  The reference heap here is the implementation the calendar
// replaced; every determinism guarantee of the repo reduces to the two
// agreeing on adversarial push/pop interleavings.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "simx/event_queue.hpp"

namespace {

using simx::CalendarQueue;
using simx::Event;
using simx::EventBefore;

/// splitmix64: small, seedable, and stable across platforms -- the
/// scenario count doubles as the seed range, so failures reproduce
/// from the scenario index alone.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// The binary heap the simulator used before the calendar queue (a
/// max-heap on the inverted order, so top() is the minimum event).
class ReferenceHeap {
 public:
  void push(const Event& ev) { heap_.push(ev); }
  Event pop() {
    const Event ev = heap_.top();
    heap_.pop();
    return ev;
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

 private:
  struct After {
    bool operator()(const Event& a, const Event& b) const { return EventBefore{}(b, a); }
  };
  std::priority_queue<Event, std::vector<Event>, After> heap_;
};

/// One seeded scenario: a random interleaving of monotone pushes and
/// pops, mirrored into both queues; every pop must agree on (time,
/// seq).  Pushes never go below the last popped time (the engine's
/// monotonicity contract), with deliberately adversarial ingredients:
/// same-time bursts, zero-delay events, far-future spikes, +infinity
/// sentinels, and occasional drain-to-empty phases that force the
/// calendar through its refill/re-fit paths.
void run_scenario(std::uint64_t seed, CalendarQueue& calendar) {
  SplitMix rng{seed * 0x2545f4914f6cdd1dull + 1};
  ReferenceHeap heap;
  const std::size_t ops = 32 + rng.below(192);
  double floor = 0.0;  // last popped time; pushes stay at or above it
  std::uint64_t seq = 0;
  // A scenario-specific time scale exercises very dense and very
  // sparse bucket fits (1e-6 .. 1e6 spacing).
  const double scale = std::pow(10.0, static_cast<double>(rng.below(13)) - 6.0);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.below(100);
    if (kind < 55 || calendar.empty()) {
      // Push 1..8 events; a burst shares one timestamp so the seq
      // tiebreak is what orders it.
      const std::size_t burst = 1 + rng.below(8);
      double t;
      switch (rng.below(8)) {
        case 0: t = floor; break;                                             // now
        case 1: t = std::numeric_limits<double>::infinity(); break;           // sentinel
        case 2: t = floor + 1000.0 * scale; break;                            // far spike
        default: t = floor + static_cast<double>(rng.below(50)) * scale; break;
      }
      for (std::size_t i = 0; i < burst; ++i) {
        const Event ev{t, seq++};
        calendar.push(ev);
        heap.push(ev);
      }
    } else if (kind < 90) {
      const Event expected = heap.pop();
      const Event got = calendar.pop();
      ASSERT_EQ(got.time, expected.time) << "seed " << seed << " op " << op;
      ASSERT_EQ(got.seq, expected.seq) << "seed " << seed << " op " << op;
      if (got.time < std::numeric_limits<double>::infinity()) floor = got.time;
    } else {
      // Drain to empty: forces refill_from_overflow and the width
      // re-fit, then keeps pushing against the re-anchored window.
      while (!heap.empty()) {
        const Event expected = heap.pop();
        const Event got = calendar.pop();
        ASSERT_EQ(got.time, expected.time) << "seed " << seed << " op " << op;
        ASSERT_EQ(got.seq, expected.seq) << "seed " << seed << " op " << op;
        if (got.time < std::numeric_limits<double>::infinity()) floor = got.time;
      }
    }
  }
  while (!heap.empty()) {
    const Event expected = heap.pop();
    const Event got = calendar.pop();
    ASSERT_EQ(got.time, expected.time) << "seed " << seed;
    ASSERT_EQ(got.seq, expected.seq) << "seed " << seed;
  }
  ASSERT_TRUE(calendar.empty()) << "seed " << seed;
  ASSERT_EQ(calendar.size(), 0u) << "seed " << seed;
}

/// Push `ev` into both queues.
void push_both(CalendarQueue& calendar, ReferenceHeap& heap, const Event& ev) {
  calendar.push(ev);
  heap.push(ev);
}

/// Pop from both queues; they must agree.  Returns the popped event.
Event pop_both(CalendarQueue& calendar, ReferenceHeap& heap) {
  const Event expected = heap.pop();
  const Event got = calendar.pop();
  EXPECT_EQ(got.time, expected.time);
  EXPECT_EQ(got.seq, expected.seq);
  return got;
}

/// An mw-shaped stream: `holders` workers, each holding one pending
/// event at an exponential gap; popping a holder's event schedules the
/// master's reply 1e-12 s later (the register push), and popping the
/// reply schedules the holder's next event.  Some replies tie the
/// popped time exactly.  Tags tell holders (0) from replies (1).
void run_mw_stream(std::uint64_t seed, CalendarQueue& calendar) {
  SplitMix rng{seed * 0x9e3779b97f4a7c15ull + 7};
  ReferenceHeap heap;
  std::uint64_t seq = 0;
  const std::size_t holders = 1 + rng.below(128);
  const double scale = std::pow(10.0, static_cast<double>(rng.below(9)) - 4.0);
  const auto gap = [&] {
    const double u = (static_cast<double>(rng.next() >> 11) + 0.5) * 0x1p-53;
    return -std::log(u) * scale;
  };
  for (std::size_t i = 0; i < holders; ++i) push_both(calendar, heap, Event{gap(), seq++, 0});
  for (std::size_t op = 0; op < 4000; ++op) {
    const Event got = pop_both(calendar, heap);
    if (got.tag == 0) {
      const double reply = rng.below(8) == 0 ? got.time : got.time + 1e-12;
      push_both(calendar, heap, Event{reply, seq++, 1});
    } else {
      push_both(calendar, heap, Event{got.time + gap(), seq++, 0});
    }
  }
  while (!heap.empty()) (void)pop_both(calendar, heap);
  ASSERT_TRUE(calendar.empty()) << "seed " << seed;
}

TEST(CalendarQueue, MatchesBinaryHeapAcrossSeededScenarios) {
  // One queue reused across all scenarios via clear(): steady-state
  // capacity/geometry recycling is exactly how the engine uses it, so
  // a scenario also fuzzes the previous scenario's leftover geometry.
  CalendarQueue calendar;
  for (std::uint64_t seed = 0; seed < 10000; ++seed) {
    run_scenario(seed, calendar);
    calendar.clear();
  }
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    run_mw_stream(seed, calendar);
    calendar.clear();
  }
}

TEST(CalendarQueue, FreshQueuePerScenario) {
  // A smaller sweep without geometry carry-over, so a bug hidden by
  // adapted geometry still has a clean repro.
  for (std::uint64_t seed = 0; seed < 512; ++seed) {
    CalendarQueue calendar;
    run_scenario(seed, calendar);
  }
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    CalendarQueue calendar;
    run_mw_stream(seed, calendar);
  }
}

TEST(CalendarQueue, SameTimeEventsPopInSeqOrder) {
  CalendarQueue queue;
  for (std::uint64_t s = 0; s < 1000; ++s) queue.push(Event{1.0, 1000 - s});
  std::uint64_t expect = 1;
  while (!queue.empty()) {
    EXPECT_EQ(queue.pop().seq, expect);
    ++expect;
  }
}

TEST(CalendarQueue, MidDrainPushesLandInOrder) {
  CalendarQueue queue;
  // Everything in one bucket's range, partially drained, then pushed
  // into mid-drain: the insert must respect (time, seq) among the
  // not-yet-popped remainder.
  for (std::uint64_t s = 0; s < 64; ++s) {
    queue.push(Event{static_cast<double>(s % 4) * 1e-9, s});
  }
  ReferenceHeap heap;
  // Rebuild the reference from what is still inside.
  std::vector<Event> popped;
  for (int i = 0; i < 16; ++i) popped.push_back(queue.pop());
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_TRUE(EventBefore{}(popped[i - 1], popped[i]));
  }
  const double floor = popped.back().time;
  for (std::uint64_t s = 64; s < 96; ++s) {
    queue.push(Event{floor + static_cast<double>(s % 3) * 1e-9, s});
  }
  Event prev = popped.back();
  while (!queue.empty()) {
    const Event got = queue.pop();
    EXPECT_TRUE(EventBefore{}(prev, got));
    prev = got;
  }

  // Register streams: a push that sorts before everything still
  // pending is held outside the ring; the pop order must stay the
  // binary heap's.
  CalendarQueue drained;
  ReferenceHeap drained_heap;
  std::uint64_t seq = 0;
  for (; seq < 64; ++seq) {
    push_both(drained, drained_heap, Event{static_cast<double>(seq) * 1e-9, seq});
  }

  // A push right after a pop, ahead of the rest of the bucket: it is
  // the very next pop.
  Event last = pop_both(drained, drained_heap);
  const Event front{last.time + 1e-13, seq++};
  push_both(drained, drained_heap, front);
  EXPECT_EQ(pop_both(drained, drained_heap).seq, front.seq);

  // An equal-time tie with the next pending event: the larger seq goes
  // behind it, so this push must not take the register.
  last = pop_both(drained, drained_heap);
  const Event tie{last.time + 1e-9, seq++};
  push_both(drained, drained_heap, tie);
  const Event next = pop_both(drained, drained_heap);
  EXPECT_EQ(next.time, tie.time);
  EXPECT_LT(next.seq, tie.seq);
  EXPECT_EQ(pop_both(drained, drained_heap).seq, tie.seq);

  // A tie with the event just popped (same time, larger seq) still
  // precedes the rest.
  last = pop_both(drained, drained_heap);
  const Event now{last.time, seq++};
  push_both(drained, drained_heap, now);
  EXPECT_EQ(pop_both(drained, drained_heap).seq, now.seq);

  // A push ahead of the held event displaces it into the ring; both
  // still pop before the rest, in (time, seq) order, also when a third
  // push lands between them.
  last = pop_both(drained, drained_heap);
  const Event held{last.time + 2e-13, seq++};
  const Event ahead{last.time + 1e-13, seq++};
  const Event between{held.time, seq++};
  push_both(drained, drained_heap, held);
  push_both(drained, drained_heap, ahead);
  push_both(drained, drained_heap, between);
  EXPECT_EQ(pop_both(drained, drained_heap).seq, ahead.seq);
  EXPECT_EQ(pop_both(drained, drained_heap).seq, held.seq);
  EXPECT_EQ(pop_both(drained, drained_heap).seq, between.seq);
  while (!drained_heap.empty()) (void)pop_both(drained, drained_heap);
  EXPECT_TRUE(drained.empty());

  // With the cursor's bucket drained empty, a push in the cursor's own
  // slot precedes the later buckets and the overflow; one past it
  // must not jump them.
  CalendarQueue spread;
  ReferenceHeap spread_heap;
  seq = 0;
  for (; seq < 64; ++seq) {
    push_both(spread, spread_heap, Event{static_cast<double>(seq), seq});
  }
  push_both(spread, spread_heap, Event{1e6, seq++});
  for (int i = 0; i < 8; ++i) {
    last = pop_both(spread, spread_heap);
    push_both(spread, spread_heap, Event{last.time + 1e-12, seq++});
    push_both(spread, spread_heap, Event{last.time + 1.5, seq++});
  }
  while (!spread_heap.empty()) (void)pop_both(spread, spread_heap);
  EXPECT_TRUE(spread.empty());

  // The same push when nothing of the cursor's bucket has been popped
  // yet (drain position 0): a fresh queue re-fitted by growth, then an
  // event ahead of everything pending.
  CalendarQueue fresh;
  ReferenceHeap fresh_heap;
  seq = 0;
  for (; seq < 256; ++seq) {
    push_both(fresh, fresh_heap, Event{1.0 + static_cast<double>(seq) * 1e-3, seq});
  }
  const Event first{0.5, seq++};
  push_both(fresh, fresh_heap, first);
  EXPECT_EQ(pop_both(fresh, fresh_heap).seq, first.seq);
  while (!fresh_heap.empty()) (void)pop_both(fresh, fresh_heap);
  EXPECT_TRUE(fresh.empty());
}

TEST(CalendarQueue, StaleWidthPileUpRecovers) {
  // Fit the geometry to a sparse phase, then switch to a dense phase
  // three orders of magnitude tighter: the pile-up re-fit must keep
  // per-op cost sane AND preserve exact ordering.  (Ordering is what
  // this asserts; bench_simx_core tracks the cost.)
  CalendarQueue queue;
  ReferenceHeap heap;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    const Event ev{static_cast<double>(i) * 100.0, seq++};
    queue.push(ev);
    heap.push(ev);
  }
  // Drain halfway (geometry now fitted to spacing 100).
  double floor = 0.0;
  for (std::size_t i = 0; i < 128; ++i) {
    const Event expected = heap.pop();
    const Event got = queue.pop();
    ASSERT_EQ(got.seq, expected.seq);
    floor = got.time;
  }
  // Dense burst: 4096 events within one old bucket's width.
  for (std::size_t i = 0; i < 4096; ++i) {
    const Event ev{floor + static_cast<double>(i) * 0.01, seq++};
    queue.push(ev);
    heap.push(ev);
  }
  while (!heap.empty()) {
    const Event expected = heap.pop();
    const Event got = queue.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
  }
}

TEST(CalendarQueue, ClearKeepsGeometryAndReserveDoesNotThrow) {
  CalendarQueue queue;
  for (std::size_t i = 0; i < 10000; ++i) {
    queue.push(Event{static_cast<double>(i) * 0.5, i});
  }
  const std::size_t grown = queue.bucket_count();
  EXPECT_GT(grown, 16u);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.bucket_count(), grown);  // geometry survives clear()
  queue.reserve(1 << 12);
  queue.push(Event{1.0, 0});
  EXPECT_EQ(queue.pop().seq, 0u);
}

}  // namespace
