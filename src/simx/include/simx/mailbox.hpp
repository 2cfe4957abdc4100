#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simx/engine.hpp"

namespace simx {

/// Typed rendezvous point between actors, located on a host (the
/// message-transfer arrows of paper Figure 1).
///
/// Delivery model: put_from()/put_delayed() computes a network delay
/// (from the platform route between the sender's host and this
/// mailbox's host) and schedules the message to become visible after
/// that delay.  Messages become receivable strictly in visible-time
/// order; receivers blocked in recv() are woken FIFO.
///
/// Context::send()-style blocking semantics are provided by
/// send_from(): the helper puts the message and returns an awaitable
/// that keeps the sender in the kCommunicating state for the transfer
/// duration, matching MSG_task_send.
///
/// Storage: all three internal queues are flat vector rings drained at
/// a head index (compacted amortized O(1)), not node-based containers.
/// In-flight messages are kept sorted by (visible-at, seq) -- the same
/// total order the engine pops events in, so delivery always takes the
/// front and *moves* the payload out; the common insert position is the
/// back, because sends on a fixed route with a fixed delay arrive in
/// post order.  reset()/reserve() recycle capacity the way the engine's
/// event queue does, so engine reuse across replicas reaches steady
/// state with zero per-mailbox allocations.
template <typename T>
class Mailbox final : public MailboxBase {
 public:
  /// Creates a mailbox owned by the caller; `location` determines the
  /// receive-side host for route cost computations.  A mailbox is known
  /// by its location's host index (errors name it that way).
  Mailbox(Engine& engine, Host& location) : engine_(&engine), location_(&location) {}

  [[nodiscard]] Host& location() const { return *location_; }

  /// Fire-and-forget send of `bytes` from host `src`; the message is
  /// visible after the route's transfer time.
  void put_from(const Host& src, T value, std::size_t bytes) {
    put_delayed(std::move(value), engine_->platform().comm_time(src, *location_, bytes));
  }

  /// Fire-and-forget send with an explicit delay.
  void put_delayed(T value, SimTime delay) {
    if (delay < 0.0) throw std::invalid_argument("Mailbox::put_delayed: negative delay");
    const SimTime at = engine_->now() + delay;
    insert_in_flight(InFlight{at, engine_->next_sequence(), std::move(value)});
    engine_->schedule_delivery(at, *this);
  }

  /// Blocking send from the actor owning `ctx`: the message is put and
  /// the returned awaitable holds the sender in kCommunicating until
  /// the transfer completes.  Usage: `co_await mb.send_from(ctx, v, b);`
  [[nodiscard]] TimedSuspend send_from(Context& ctx, T value, std::size_t bytes) {
    return send_from_delayed(ctx, std::move(value),
                             engine_->platform().comm_time(ctx.host(), *location_, bytes));
  }

  /// Blocking send with a precomputed transfer delay, bypassing the
  /// per-message route lookup -- for senders on a fixed route that
  /// cache the comm cost once per run (the master-worker serve loop).
  ///
  /// The returned awaitable MUST be co_awaited: for positive delays the
  /// message delivery rides on the sender's wake-up event (one
  /// event-queue entry instead of two, identical ordering since the two
  /// events were always adjacent in time and sequence).
  [[nodiscard]] TimedSuspend send_from_delayed(Context& ctx, T value, SimTime delay) {
    const SimTime at = engine_->now() + delay;
    if (at <= engine_->now()) {
      // Zero delay -- including a positive delay that rounds away
      // against a large current time -- completes without suspending,
      // so the delivery needs its own event.
      put_delayed(std::move(value), delay);
      return TimedSuspend(*engine_, ctx.control(), engine_->now(),
                          ActorState::kCommunicating);
    }
    insert_in_flight(InFlight{at, engine_->next_sequence(), std::move(value)});
    return TimedSuspend(*engine_, ctx.control(), at, ActorState::kCommunicating, this);
  }

  /// Fully fused "compute until `busy_until`, then blocking-send with a
  /// precomputed `delay`": equivalent to
  ///
  ///   co_await ctx.compute_until(busy_until);
  ///   co_await mb.send_from_delayed(ctx, v, delay);
  ///
  /// but suspending exactly once on ONE event-queue entry (wake at
  /// busy_until + delay, message delivered on the same event) where the
  /// unfused form costs two.  Accrual is identical: kComputing until
  /// busy_until, kCommunicating from busy_until to delivery.
  ///
  /// The value must be an rvalue: it rides on the event as a pointer
  /// into the sender's coroutine frame (a temporary in a co_await
  /// expression lives across the suspension), so the fused send never
  /// touches the in-flight queue.  The returned awaitable MUST be
  /// co_awaited, from the same full expression that built the value.
  [[nodiscard]] TimedSuspend send_from_after(Context& ctx, T&& value, SimTime busy_until,
                                             SimTime delay) {
    const SimTime at = busy_until + delay;
    if (at <= engine_->now()) {
      // Degenerate: nothing to compute and a zero transfer -- completes
      // without suspending, so the delivery needs its own event.
      put_delayed(std::move(value), 0.0);
      return TimedSuspend(*engine_, ctx.control(), engine_->now(), ActorState::kComputing);
    }
    return TimedSuspend(*engine_, ctx.control(), at, ActorState::kComputing, this,
                        busy_until, &value);
  }

  /// Awaitable receive: resumes with the next visible message; the
  /// waiting period is accounted as kWaitingRecv (idle) time.
  /// Usage: `T msg = co_await mb.recv(ctx);`
  [[nodiscard]] auto recv(Context& ctx) { return RecvAwaiter{this, &ctx}; }

  /// Messages currently receivable without waiting.
  [[nodiscard]] std::size_t ready_count() const { return ready_.size() - ready_head_; }
  /// Messages still in flight.
  [[nodiscard]] std::size_t in_flight_count() const {
    return in_flight_.size() - in_flight_head_;
  }

  /// Drop all queued state, keeping every vector's capacity (the
  /// counterpart of Engine::reset() for callers that cache mailboxes
  /// across replicas).
  void reset() noexcept {
    in_flight_.clear();
    ready_.clear();
    waiters_.clear();
    in_flight_head_ = 0;
    ready_head_ = 0;
    waiters_head_ = 0;
  }

  /// Pre-size the internal queues for `count` concurrently queued
  /// messages/waiters.
  void reserve(std::size_t count) {
    in_flight_.reserve(count);
    ready_.reserve(count);
    waiters_.reserve(count);
  }

 private:
  struct InFlight {
    SimTime at;
    std::uint64_t seq;
    T value;
  };
  struct RecvAwaiter;
  /// A suspended receiver: the message is written through `slot` (a
  /// frame-stable location in the receiver's coroutine) and `*have` is
  /// raised before `handle` is resumed.
  struct Waiter {
    std::coroutine_handle<> handle;
    T* slot;
    bool* have;
  };

  /// Drop a drained prefix once it dominates the vector, keeping
  /// amortized O(1) pops without unbounded growth.
  template <typename Vec>
  static void compact(Vec& vec, std::size_t& head) {
    if (head == vec.size()) {
      vec.clear();
      head = 0;
    } else if (head >= 64 && head * 2 >= vec.size()) {
      vec.erase(vec.begin(), vec.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }

  void insert_in_flight(InFlight&& in) {
    if (in_flight_head_ == in_flight_.size()) {
      in_flight_.clear();
      in_flight_head_ = 0;
      in_flight_.push_back(std::move(in));
      return;
    }
    const InFlight& back = in_flight_.back();
    if (back.at < in.at || (back.at == in.at && back.seq < in.seq)) {
      in_flight_.push_back(std::move(in));
      return;
    }
    // Out-of-order arrival (shorter delay posted after a longer one):
    // keep the live range sorted by (at, seq).
    const auto begin = in_flight_.begin() + static_cast<std::ptrdiff_t>(in_flight_head_);
    const auto pos = std::upper_bound(
        begin, in_flight_.end(), in, [](const InFlight& a, const InFlight& b) {
          if (a.at != b.at) return a.at < b.at;
          return a.seq < b.seq;
        });
    in_flight_.insert(pos, std::move(in));
  }

  struct RecvAwaiter {
    Mailbox* mailbox;
    Context* ctx;
    T value{};
    bool have = false;

    [[nodiscard]] bool await_ready() {
      if (mailbox->ready_head_ == mailbox->ready_.size()) return false;
      value = std::move(mailbox->ready_[mailbox->ready_head_++]);
      compact(mailbox->ready_, mailbox->ready_head_);
      have = true;
      return true;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      ctx->control().set_state(ActorState::kWaitingRecv, mailbox->engine_->now());
      mailbox->waiters_.push_back(Waiter{handle, &value, &have});
    }
    T await_resume() {
      detail::ActorControl& control = ctx->control();
      if (control.state != ActorState::kReady) {
        control.set_state(ActorState::kReady, mailbox->engine_->now());
      }
      if (!have) {
        throw std::logic_error(mailbox->describe() + ": waiter woken without a message");
      }
      return std::move(value);
    }
  };

  [[nodiscard]] std::string describe() const {
    return "mailbox on host " + std::to_string(location_->index());
  }

  void on_deliver() override {
    if (in_flight_head_ == in_flight_.size()) {
      throw std::logic_error(describe() + ": delivery event without message");
    }
    // The engine delivers in global (time, seq) order and the live
    // range is sorted by the same key, so the front *is* the delivered
    // message -- move its payload out, no copy.
    deliver_now(std::move(in_flight_[in_flight_head_++].value));
    compact(in_flight_, in_flight_head_);
  }

  void on_deliver_payload(void* slot) override {
    // Fused-send delivery: the value sat in the (still suspended)
    // sender's frame; move it straight to its destination.
    deliver_now(std::move(*static_cast<T*>(slot)));
  }

  /// A message is visible as of now: hand it straight to the
  /// longest-waiting receiver (a receiver only suspends when ready_ is
  /// empty, so the front waiter must get exactly this message), or
  /// queue it.
  void deliver_now(T&& value) {
    if (waiters_head_ != waiters_.size()) {
      const Waiter waiter = waiters_[waiters_head_++];
      compact(waiters_, waiters_head_);
      *waiter.slot = std::move(value);
      *waiter.have = true;
      waiter.handle.resume();
    } else {
      ready_.push_back(std::move(value));
    }
  }

  Engine* engine_;
  Host* location_;
  std::vector<InFlight> in_flight_;  ///< live range [head, end) sorted by (at, seq)
  std::size_t in_flight_head_ = 0;
  std::vector<T> ready_;
  std::size_t ready_head_ = 0;
  std::vector<Waiter> waiters_;
  std::size_t waiters_head_ = 0;
};

}  // namespace simx
