#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "simx/speed_profile.hpp"

namespace simx {

/// One scheduled occurrence.  The pair (time, seq) is the total order
/// the queue pops in -- the caller hands out seq in strictly increasing
/// push order, so simultaneous events fire in scheduling order.  Every
/// determinism guarantee of the repo reduces to popping events in
/// exactly this (time, seq) order.  `tag` is opaque to the queue: it
/// tells the caller what the event does (mw packs an event kind and a
/// worker index into it).
struct Event {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t tag = 0;
};

/// The (time, seq) total order, as a stateless functor so the queue's
/// sorts and bounds inline the comparison (a function pointer would
/// cost an indirect call per comparison on the hottest loop).
struct EventBefore {
  [[nodiscard]] bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

/// Deterministic two-tier calendar queue for discrete-event simulation.
///
/// The queue is *monotone*: callers never push a time below the last
/// popped one, and pops never decrease in time.  A calendar
/// (bucket) queue exploits that: near-future events live in a ring of
/// `bucket_count` buckets of `width` seconds each, covering the window
/// [origin + cursor*width, origin + (cursor+count)*width); events at or
/// beyond the window's end wait in a sorted overflow tier and migrate
/// into the ring as the cursor advances.  Steady-state push and pop are
/// O(1) amortized -- no comparator-driven sifting -- which is why event
/// cost stays flat as the pending count grows (see bench_simx_core).
///
/// Ordering is exact, not approximate: a bucket is sorted by
/// (time, seq) when the cursor first drains it, pushes that land in the
/// bucket being drained insert at their sorted position among the
/// not-yet-popped remainder, and same-time events therefore pop FIFO by
/// seq -- bit-identical to a binary heap (the heap-vs-calendar property
/// test in tests/simx/test_event_queue.cpp asserts it over seeded
/// adversarial streams).
///
/// Register: one event held outside both tiers.  A push that sorts
/// before every pending event goes into it when it is free, and pop()
/// returns it without touching the ring; a push that sorts before the
/// held event takes its place and sends the old one down to the tiers.
/// Nearly half of mw's pushes take it: the master's reply lands 1e-12 s
/// after the request it answers, ahead of every other pending event, so
/// a chunk is one ring event (the worker's next request) in the common
/// case.
///
/// Determinism: bucket width and count adapt only at rebuild points
/// that are pure functions of the push/pop sequence and the event times
/// (never of wall-clock or allocation addresses), so two identical runs
/// make identical resize decisions.
///
/// clear() keeps every vector's capacity, so a queue reused across
/// replicas (mw::RunContext) reaches steady state with zero queue
/// allocations.
class CalendarQueue {
 public:
  CalendarQueue() { buckets_.resize(kMinBuckets); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  // push() and pop() are always inlined, so an event built by the
  // caller stays in registers.  Through memory, the compiler stores an
  // Event in one width and reloads it in another, and the reload stalls
  // on store forwarding (mw pops its reply right after pushing it).
  [[gnu::always_inline]] void push(const Event& ev) {
    ++size_;
    if (held_) {
      if (EventBefore{}(ev, register_)) {
        const Event displaced = register_;
        register_ = ev;
        push_tiers(displaced);
        return;
      }
    } else if (precedes_tiers(ev)) {
      register_ = ev;
      held_ = true;
      return;
    }
    push_tiers(ev);
  }

  /// Pop the minimum-(time, seq) event.  Precondition: !empty().
  [[gnu::always_inline]] Event pop() {
    --size_;
    if (held_) {
      held_ = false;
      // Field by field, for the same reason: a whole-struct copy is a
      // reload that straddles the stores of the push just before.
      return Event{register_.time, register_.seq, register_.tag};
    }
    std::vector<Event>& bucket = buckets_[cursor_slot_ & mask_];
    const auto next = bucket.begin() + static_cast<std::ptrdiff_t>(drain_pos_);
    if (cursor_sorted_ && next != bucket.end()) return take_next(bucket);
    return pop_ring();
  }

  /// Drop all events, keeping bucket/overflow capacity and the adapted
  /// width (a reused queue re-runs the same shape, so the previous
  /// run's geometry is the right starting point).
  void clear() {
    for (std::vector<Event>& bucket : buckets_) bucket.clear();
    overflow_.clear();
    held_ = false;
    size_ = 0;
    ring_size_ = 0;
    origin_ = 0.0;
    cursor_slot_ = 0;
    drain_pos_ = 0;
    cursor_sorted_ = false;
    overflow_sorted_ = true;
    batch_refit_armed_ = true;
    overflow_refit_trigger_ = 2 * kMinBuckets;
    overflow_min_time_ = std::numeric_limits<double>::infinity();
    recompute_window_end();
  }

  /// Pre-size the tiers for `count` pending events.
  void reserve(std::size_t count) {
    scratch_.reserve(count);
    overflow_.reserve(count);
  }

  /// Observability for tests/benches: current bucket-ring geometry.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

 private:
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;
  /// Pending events in one bucket that count as a pile-up.  A fitted
  /// width holds about two events per bucket, and every drain sorts its
  /// bucket.  mw's SS at P = 64 shows the difference: with a trigger of
  /// 64 it drains buckets of ~40 events all run long, with 16 of ~6.
  static constexpr std::size_t kPileUp = 16;
  /// Largest drain batch sort_events() insertion-sorts.
  static constexpr std::size_t kInsertionSortMax = 64;

  /// The next event of the cursor's sorted, not yet drained bucket.
  Event take_next(std::vector<Event>& bucket) {
    const Event ev = bucket[drain_pos_++];
    --ring_size_;
    if (bucket.begin() + static_cast<std::ptrdiff_t>(drain_pos_) == bucket.end()) {
      bucket.clear();  // keeps capacity
      drain_pos_ = 0;
    }
    return ev;
  }

  /// pop() once the cursor's bucket is drained or not yet sorted.
  Event pop_ring() {
    for (;;) {
      if (ring_size_ == 0) {
        refill_from_overflow();
        if (ring_size_ == 0) {  // only non-finite times remain
          const Event ev = overflow_.back();
          overflow_.pop_back();
          overflow_min_time_ =
              overflow_.empty() ? std::numeric_limits<double>::infinity()
                                : overflow_.back().time;
          return ev;
        }
        continue;
      }
      std::vector<Event>& bucket = buckets_[cursor_slot_ & mask_];
      if (drain_pos_ == bucket.size()) {
        bucket.clear();  // keeps capacity
        drain_pos_ = 0;
        cursor_sorted_ = false;
        advance_cursor();
        continue;
      }
      if (!cursor_sorted_) {
        // A stale-wide width (fitted during a sparse phase, or kept
        // across clear()) funnels the whole ring into one bucket and
        // degrades pushes into sorted-vector inserts.  The ring never
        // empties in steady state, so the refill-time refit can't
        // correct it -- detect the pile-up here and re-fit.  The
        // trigger is a pure function of the queue contents (and re-arms
        // only when the cursor makes progress, so a genuinely
        // same-time pile-up can't rebuild per pop), keeping identical
        // runs bit-identical.
        const std::size_t pending = bucket.size() - drain_pos_;
        if (batch_refit_armed_ && pending >= kPileUp && pending * 4 >= ring_size_) {
          batch_refit_armed_ = false;
          rebuild(buckets_.size());
          continue;
        }
        sort_events(bucket.data() + drain_pos_, bucket.data() + bucket.size());
        cursor_sorted_ = true;
      }
      return take_next(bucket);
    }
  }

  /// Whether `ev` sorts before every event in the ring and the
  /// overflow.  Exact where it answers true; it may answer false for an
  /// event that does precede them (it then just takes the tiers).
  [[nodiscard]] bool precedes_tiers(const Event& ev) const {
    if (ring_size_ == 0) return ev.time < overflow_min_time_;
    if (!cursor_sorted_) return false;
    const std::vector<Event>& bucket = buckets_[cursor_slot_ & mask_];
    // The cursor's sorted bucket holds the minimum whenever it is not
    // empty.  When it is, every ring event sits in a later slot and
    // every overflow event at or past the window's end, so an event of
    // the cursor's own slot precedes them all (slot_of is monotone).
    const auto next = bucket.begin() + static_cast<std::ptrdiff_t>(drain_pos_);
    if (next != bucket.end()) return EventBefore{}(ev, *next);
    return ev.time < window_end_ && slot_of(ev.time) == cursor_slot_;
  }

  /// Push into the ring, or into the overflow past the window.
  void push_tiers(const Event& ev) {
    if (!(ev.time < window_end_)) {  // routes +inf (and any NaN) to overflow
      push_overflow(ev);
      return;
    }
    ring_insert(ev);
    if (size_ > 2 * (mask_ + 1) && mask_ + 1 < kMaxBuckets) rebuild(2 * (mask_ + 1));
  }

  /// Sort [first, last) by (time, seq).  A fitted width leaves a few
  /// events per bucket, where a plain insertion sort beats std::sort's
  /// set-up; a pile-up the refit could not split still gets std::sort.
  static void sort_events(Event* first, Event* last) {
    if (last - first > static_cast<std::ptrdiff_t>(kInsertionSortMax)) {
      std::sort(first, last, EventBefore{});
      return;
    }
    for (Event* next = first + 1; next < last; ++next) {
      const Event ev = *next;
      Event* hole = next;
      for (; hole > first && EventBefore{}(ev, hole[-1]); --hole) *hole = hole[-1];
      *hole = ev;
    }
  }

  void recompute_window_end() {
    window_end_ = origin_ + static_cast<double>(cursor_slot_ + mask_ + 1) * width_;
  }

  /// Slow-path half of push(): events at or beyond the window.  Kept
  /// out of line (and cold) deliberately -- push() is the hottest
  /// function in a simulation, and inlining this branch measurably slows
  /// the ring path even in runs where it never executes.
  [[using gnu: noinline, cold]] void push_overflow(Event ev) {
    // The overflow is kept descending by the FULL (time, seq) order:
    // an equal-time append (e.g. two +inf sentinels) breaks it just
    // as a smaller time does, because the newer event's larger seq
    // belongs in front of, not behind, the old back.
    if (!overflow_.empty() && !EventBefore{}(ev, overflow_.back())) overflow_sorted_ = false;
    overflow_.push_back(ev);
    if (ev.time < overflow_min_time_) overflow_min_time_ = ev.time;
    // A growing overflow means the window is too narrow for the live
    // event span (the occupancy rule in push() never sees these
    // pushes), so re-fit the geometry to the whole contents.  The
    // trigger doubles on every firing -- and rebuild() floors it above
    // whatever tail the re-fit could not bring into the window -- so a
    // run pays at most O(log n) overflow rebuilds even under monotone
    // drift, and a genuinely bimodal span stops firing instead of
    // thrashing.
    if (overflow_.size() >= overflow_refit_trigger_) {
      overflow_refit_trigger_ *= 2;
      rebuild(grown_bucket_count());
    }
  }

  /// Bucket count the occupancy rule asks for at the current total
  /// size (a power of two, at most kMaxBuckets).
  [[nodiscard]] std::size_t grown_bucket_count() const {
    std::size_t count = buckets_.size();
    while (size_ > 2 * count && count < kMaxBuckets) count *= 2;
    return count;
  }

  /// Absolute slot of `time`, clamped into the live window.  Clamping
  /// is always order-safe: a too-early event joins the cursor's bucket
  /// (sorted insert puts it first), a rounding overshoot joins the last
  /// bucket (the drain sort restores its place).
  [[nodiscard]] std::uint64_t slot_of(SimTime time) const {
    const double delta = time - origin_;
    std::uint64_t slot =
        delta > 0.0 ? static_cast<std::uint64_t>(delta * inv_width_) : std::uint64_t{0};
    if (slot < cursor_slot_) slot = cursor_slot_;
    const std::uint64_t last = cursor_slot_ + mask_;
    if (slot > last) slot = last;
    return slot;
  }

  void ring_insert(const Event& ev) {
    ++ring_size_;
    const std::uint64_t slot = slot_of(ev.time);
    std::vector<Event>& bucket = buckets_[slot & mask_];
    if (slot == cursor_slot_ && cursor_sorted_) {
      insert_sorted(bucket, ev);
      return;
    }
    bucket.push_back(ev);
  }

  /// Mid-drain push into the bucket being drained: keep the
  /// not-yet-popped remainder sorted so the (time, seq) order holds.
  /// Out of line, and like push_overflow() it takes the event by value,
  /// so a pushed event's address never escapes the inlined push().
  [[gnu::noinline]] void insert_sorted(std::vector<Event>& bucket, Event ev) {
    const auto begin = bucket.begin() + static_cast<std::ptrdiff_t>(drain_pos_);
    bucket.insert(std::upper_bound(begin, bucket.end(), ev, EventBefore{}), ev);
  }

  void advance_cursor() {
    ++cursor_slot_;
    batch_refit_armed_ = true;  // progress made; pile-up detection may fire again
    recompute_window_end();
    if (overflow_min_time_ < window_end_) migrate_overflow();
  }

  void sort_overflow() {
    if (overflow_sorted_) return;
    // Descending, so the minimum is popped/migrated from the back.
    std::sort(overflow_.begin(), overflow_.end(),
              [](const Event& a, const Event& b) { return EventBefore{}(b, a); });
    overflow_sorted_ = true;
  }

  /// Move every overflow event now inside the window into the ring.
  void migrate_overflow() {
    sort_overflow();
    while (!overflow_.empty() && overflow_.back().time < window_end_) {
      ring_insert(overflow_.back());
      overflow_.pop_back();
    }
    overflow_min_time_ = overflow_.empty() ? std::numeric_limits<double>::infinity()
                                           : overflow_.back().time;
  }

  /// Ring empty, events pending in overflow: re-anchor the window at
  /// the earliest overflow time and migrate a window's worth in.
  /// Also refits the bucket width to the overflow's current spacing --
  /// event density drifts over a run (e.g. decreasing-chunk techniques
  /// start sparse and end dense), and a stale width degrades buckets
  /// into big sort batches.  The refit depends only on the queue
  /// contents, so identical runs refit identically.
  void refill_from_overflow() {
    sort_overflow();
    const double tmin = overflow_.back().time;
    if (!std::isfinite(tmin)) return;  // pop() drains overflow directly
    std::size_t first_finite = 0;  // overflow is descending; +inf sits at the front
    while (first_finite < overflow_.size() &&
           !std::isfinite(overflow_[first_finite].time)) {
      ++first_finite;
    }
    const std::size_t finite = overflow_.size() - first_finite;
    if (finite >= 2) {
      const double span = overflow_[first_finite].time - tmin;
      const double fitted = 2.0 * span / static_cast<double>(finite - 1);
      if (fitted > 0.0 && std::isfinite(fitted)) {
        width_ = fitted;
        inv_width_ = 1.0 / width_;
      }
    }
    origin_ = tmin;
    cursor_slot_ = 0;
    drain_pos_ = 0;
    cursor_sorted_ = false;
    recompute_window_end();
    if (!(window_end_ > tmin)) {
      // Degenerate width against a huge anchor (tmin + n*width rounds
      // to tmin): force the minimum event across so pop() progresses.
      ring_insert(overflow_.back());
      overflow_.pop_back();
      overflow_min_time_ = overflow_.empty() ? std::numeric_limits<double>::infinity()
                                             : overflow_.back().time;
      return;
    }
    migrate_overflow();
  }

  /// Re-bucket everything into `new_count` buckets with a width fitted
  /// to the current event spacing.  Triggered by occupancy alone, so
  /// identical push/pop sequences rebuild identically.  Out of line, so
  /// the inlined push() that can trigger it stays small.
  [[gnu::noinline]] void rebuild(std::size_t new_count) {
    scratch_.clear();
    std::vector<Event>& cursor_bucket = buckets_[cursor_slot_ & mask_];
    scratch_.insert(scratch_.end(),
                    cursor_bucket.begin() + static_cast<std::ptrdiff_t>(drain_pos_),
                    cursor_bucket.end());
    for (std::size_t i = 1; i < buckets_.size(); ++i) {
      std::vector<Event>& bucket = buckets_[(cursor_slot_ + i) & mask_];
      scratch_.insert(scratch_.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    cursor_bucket.clear();
    scratch_.insert(scratch_.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    std::sort(scratch_.begin(), scratch_.end(), EventBefore{});

    // Fit the width to the average spacing of the finite-time events;
    // an empty or single-point spread keeps the current width.
    std::size_t finite = scratch_.size();
    while (finite > 0 && !std::isfinite(scratch_[finite - 1].time)) --finite;
    if (finite >= 2) {
      const double span = scratch_[finite - 1].time - scratch_[0].time;
      const double fitted = 2.0 * span / static_cast<double>(finite - 1);
      if (fitted > 0.0 && std::isfinite(fitted)) {
        width_ = fitted;
        inv_width_ = 1.0 / width_;
      }
    }

    buckets_.resize(new_count);
    mask_ = new_count - 1;
    origin_ = scratch_.empty() ? 0.0 : scratch_.front().time;
    cursor_slot_ = 0;
    drain_pos_ = 0;
    recompute_window_end();
    std::size_t i = 0;
    for (; i < scratch_.size() && scratch_[i].time < window_end_; ++i) {
      buckets_[slot_of(scratch_[i].time) & (new_count - 1)].push_back(scratch_[i]);
    }
    ring_size_ = i;
    // Ascending tail back into overflow, reversed so the back stays
    // the minimum.
    for (std::size_t j = scratch_.size(); j > i; --j) overflow_.push_back(scratch_[j - 1]);
    overflow_sorted_ = true;
    overflow_min_time_ = overflow_.empty() ? std::numeric_limits<double>::infinity()
                                           : overflow_.back().time;
    // Buckets were filled in ascending (time, seq) order, so the
    // cursor's bucket is already drain-ready.
    cursor_sorted_ = true;
    // Keep the overflow-pressure trigger above double whatever this
    // rebuild could not bring into the window (it never decays within
    // a run; clear() resets it).
    overflow_refit_trigger_ = std::max(
        overflow_refit_trigger_, std::max<std::size_t>(2 * overflow_.size(), 2 * kMinBuckets));
    scratch_.clear();
  }

  Event register_;  // precedes every event of both tiers while held_
  bool held_ = false;
  std::vector<std::vector<Event>> buckets_;  // ring; size is a power of two
  std::vector<Event> overflow_;              // beyond the window; sorted descending when clean
  std::vector<Event> scratch_;               // rebuild staging, capacity recycled
  double origin_ = 0.0;                      // time of absolute slot 0
  double width_ = 1.0;
  double inv_width_ = 1.0;
  double window_end_ = static_cast<double>(kMinBuckets);  // origin + (cursor+count)*width
  double overflow_min_time_ = std::numeric_limits<double>::infinity();
  std::uint64_t cursor_slot_ = 0;  // absolute slot the drain cursor is on
  std::size_t drain_pos_ = 0;      // next undrained index in the cursor's bucket
  std::size_t mask_ = kMinBuckets - 1;  // buckets_.size() - 1
  std::size_t size_ = 0;
  std::size_t ring_size_ = 0;
  std::size_t overflow_refit_trigger_ = 2 * kMinBuckets;  // doubles per rebuild
  bool cursor_sorted_ = false;
  bool overflow_sorted_ = true;
  bool batch_refit_armed_ = true;  // one pile-up refit per cursor advance
};

}  // namespace simx
