#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "simx/event_queue.hpp"
#include "simx/platform.hpp"

namespace simx {

class Engine;
class Context;
class MailboxBase;

/// What a simulated actor is doing; the engine accounts virtual time
/// per state, which is the raw material of every metric in the paper
/// (compute time, idle/waiting time, communication time).
enum class ActorState : std::size_t {
  kReady = 0,        ///< runnable (zero virtual time is spent here)
  kComputing,        ///< inside execute()/compute_for()
  kCommunicating,    ///< inside a blocking send()
  kSleeping,         ///< inside sleep_for()/sleep_until()
  kWaitingRecv,      ///< blocked in recv() -- idle time
  kDone,             ///< actor body returned
};
inline constexpr std::size_t kActorStateCount = 6;

/// Coroutine return type for actor bodies.  An actor body is a C++20
/// coroutine `simx::Actor body(simx::Context& ctx)` that co_awaits the
/// Context's activities; this mirrors the MSG process functions of the
/// paper's Figure 1 master-worker model.
class Actor {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  Actor(Actor&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  Actor& operator=(Actor&&) = delete;
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;
  ~Actor();

 private:
  friend class Engine;
  explicit Actor(Handle handle) : handle_(handle) {}
  [[nodiscard]] Handle release() {
    Handle h = handle_;
    handle_ = {};
    return h;
  }
  Handle handle_;
};

namespace detail {

/// Engine-side bookkeeping for one actor.
struct ActorControl {
  std::string name;
  Host* host = nullptr;
  Actor::Handle handle;
  std::unique_ptr<Context> context;
  Engine* engine = nullptr;
  std::exception_ptr exception;
  bool finished = false;
  SimTime finished_at = 0.0;

  ActorState state = ActorState::kReady;
  SimTime last_transition = 0.0;
  std::array<double, kActorStateCount> accrued{};

  void set_state(ActorState next, SimTime now) {
    accrued[static_cast<std::size_t>(state)] += now - last_transition;
    state = next;
    last_transition = now;
  }
  [[nodiscard]] double time_in(ActorState s) const {
    return accrued[static_cast<std::size_t>(s)];
  }
};

}  // namespace detail

struct Actor::promise_type {
  detail::ActorControl* control = nullptr;

  Actor get_return_object() { return Actor{Handle::from_promise(*this)}; }
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    void await_suspend(Handle h) noexcept;
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  void return_void() {}
  void unhandled_exception() {
    if (control != nullptr) control->exception = std::current_exception();
  }
};

/// Per-actor accounting snapshot (see Engine::accounting()).
struct ActorAccounting {
  std::string name;
  std::string host;
  bool finished = false;
  SimTime finished_at = 0.0;
  double computing = 0.0;
  double communicating = 0.0;
  double sleeping = 0.0;
  double waiting = 0.0;
};

/// Allocation-free accounting for one actor (see Engine::actor_times):
/// the numeric part of ActorAccounting without the name/host strings,
/// for callers that read accounting once per run on a hot path.
struct ActorTimes {
  bool finished = false;
  SimTime finished_at = 0.0;
  double computing = 0.0;
  double communicating = 0.0;
  double sleeping = 0.0;
  double waiting = 0.0;
};

/// Awaitable that suspends the current actor until a fixed virtual
/// time, accounting the waiting period to a given state.  Building
/// block for execute/sleep/send.
///
/// With `deliver` set, the wake-up event also delivers that mailbox's
/// next in-flight message immediately before resuming the actor -- the
/// blocking-send fast path, which folds the delivery event and the
/// sender's resume event (always adjacent in time and sequence) into
/// one event-queue entry.
///
/// With `communicate_from` set below `wake_at`, the suspension is
/// two-phase: the actor is accounted `during` until communicate_from
/// and kCommunicating from there to wake_at.  This is the fully fused
/// "compute, then blocking-send" awaitable (Mailbox::send_from_after):
/// one event where the unfused sequence costs two, with accrual
/// identical to the two-awaitable form.
class TimedSuspend {
 public:
  TimedSuspend(Engine& engine, detail::ActorControl& control, SimTime wake_at,
               ActorState during, MailboxBase* deliver = nullptr,
               SimTime communicate_from = std::numeric_limits<SimTime>::infinity(),
               void* payload = nullptr);

  [[nodiscard]] bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> handle) const;
  void await_resume() const;

 private:
  Engine* engine_;
  detail::ActorControl* control_;
  SimTime wake_at_;
  ActorState during_;
  MailboxBase* deliver_;
  SimTime communicate_from_;
  void* payload_;
};

/// The per-actor API surface (analog of the MSG process functions).
/// A Context is created by Engine::spawn and passed to the actor body;
/// all of its awaitables must be co_awaited from that actor.
class Context {
 public:
  Context(Engine& engine, detail::ActorControl& control)
      : engine_(&engine), control_(&control) {}
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] SimTime now() const;
  [[nodiscard]] Host& host() const { return *control_->host; }
  [[nodiscard]] const std::string& name() const { return control_->name; }
  [[nodiscard]] Engine& engine() const { return *engine_; }

  /// Execute `flops` of work on this actor's host (MSG_task_execute).
  [[nodiscard]] TimedSuspend execute(double flops) const;
  /// Occupy the host for a fixed virtual duration (models constant
  /// per-operation costs such as the scheduling overhead h).
  [[nodiscard]] TimedSuspend compute_for(SimTime duration) const;
  [[nodiscard]] TimedSuspend sleep_for(SimTime duration) const;
  [[nodiscard]] TimedSuspend sleep_until(SimTime t) const;

  [[nodiscard]] detail::ActorControl& control() const { return *control_; }

 private:
  Engine* engine_;
  detail::ActorControl* control_;
};

/// Base for typed mailboxes; the engine delivers in-flight messages
/// through this interface.
class MailboxBase {
 public:
  virtual ~MailboxBase() = default;
  MailboxBase(const MailboxBase&) = delete;
  MailboxBase& operator=(const MailboxBase&) = delete;

 protected:
  MailboxBase() = default;

 private:
  friend class Engine;
  /// Called at the virtual time a message becomes visible.
  virtual void on_deliver() = 0;
  /// Called at the virtual time an event-carried message (a fused
  /// send's payload, stored in the suspended sender's frame) becomes
  /// visible; `slot` points at the typed value to move out.
  virtual void on_deliver_payload(void* slot) = 0;
};

/// Discrete-event simulation engine: virtual clock + calendar event
/// queue + coroutine actors.  Single-threaded by design; experiments
/// run many engines concurrently (one per run) on pool::Executor.
class Engine {
 public:
  explicit Engine(Platform platform) : platform_(std::move(platform)) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] Platform& platform() { return platform_; }
  [[nodiscard]] SimTime now() const { return now_; }

  /// Create an actor on `host`; its body starts when run() is called
  /// (or immediately at the current virtual time if spawned mid-run).
  ///
  /// Templated on the callable: the hot batch paths spawn 1 + P actors
  /// per replica, and going through std::function cost a type-erasure
  /// allocation per spawn.  The engine-side bookkeeping (ActorControl
  /// + Context) comes from an arena recycled across reset(), so a
  /// reused engine's spawns allocate nothing in steady state.
  template <typename Body>
  Context& spawn(std::string name, Host& host, Body&& body) {
    static_assert(std::is_invocable_r_v<Actor, Body&, Context&>,
                  "an actor body is callable as Actor(Context&)");
    std::unique_ptr<detail::ActorControl> control = acquire_control(std::move(name), host);
    Actor actor = body(*control->context);
    return register_actor(std::move(control), actor.release());
  }

  /// Run until no events remain.  Rethrows the first actor exception.
  /// Returns the final virtual time (the makespan when all actors end).
  SimTime run();

  /// Destroy all actors and pending events and rewind the clock to 0,
  /// keeping the platform (hosts, links, routes) and the event-queue
  /// capacity.  This is what makes per-thread engine reuse across a
  /// batch of runs cheap: the platform -- the only construction cost
  /// that grows with the worker count -- is built once.
  void reset();

  /// Pre-size the event queue (chunk serving schedules a handful of
  /// events per in-flight worker; reserving avoids regrowth mid-run).
  void reserve_events(std::size_t count);

  /// Actors that have not finished (e.g. blocked in recv forever).
  [[nodiscard]] std::vector<std::string> unfinished_actors() const;
  /// Allocation-free "did every actor finish" check (the happy path of
  /// the post-run deadlock test).
  [[nodiscard]] bool all_finished() const;
  /// Per-actor accounting, in spawn order.  Unfinished actors accrue
  /// their current state up to now().
  [[nodiscard]] std::vector<ActorAccounting> accounting() const;
  [[nodiscard]] std::size_t actor_count() const { return actors_.size(); }
  /// Numeric accounting of the actor at `index` (spawn order) without
  /// materializing name strings; same accrual rule as accounting().
  [[nodiscard]] ActorTimes actor_times(std::size_t index) const;

  /// --- engine-internal API used by awaitables and mailboxes ---
  /// (Inline: these run a handful of times per simulated chunk; the
  /// event push must compile down into the caller.)
  void schedule_resume(SimTime t, std::coroutine_handle<> handle) {
    push_event(Event{t, next_sequence(), handle, nullptr});
  }
  void schedule_delivery(SimTime t, MailboxBase& mailbox) {
    push_event(Event{t, next_sequence(), {}, &mailbox});
  }
  /// One event that delivers `mailbox`'s next message and then resumes
  /// `handle` (see TimedSuspend's deliver parameter).  With `payload`
  /// set, the message value rides on the event itself (it lives in the
  /// suspended sender's coroutine frame) instead of in the mailbox's
  /// in-flight queue -- the fully fused send never touches a sorted
  /// container at all.
  void schedule_delivery_then_resume(SimTime t, MailboxBase& mailbox,
                                     std::coroutine_handle<> handle,
                                     void* payload = nullptr) {
    push_event(Event{t, next_sequence(), handle, &mailbox, payload});
  }
  [[nodiscard]] std::uint64_t next_sequence() { return sequence_++; }

 private:
  void push_event(Event event) {
    if (event.time < now_) throw std::logic_error("event scheduled in the past");
    events_.push(event);
  }
  /// Arena-backed control acquisition (pops spare_controls_ or
  /// allocates) and spawn completion -- the non-template halves of
  /// spawn(), so the template stays a two-liner.
  [[nodiscard]] std::unique_ptr<detail::ActorControl> acquire_control(std::string name,
                                                                      Host& host);
  Context& register_actor(std::unique_ptr<detail::ActorControl> control,
                          Actor::Handle handle);

  Platform platform_;
  SimTime now_ = 0.0;
  std::uint64_t sequence_ = 0;
  CalendarQueue events_;
  std::vector<std::unique_ptr<detail::ActorControl>> actors_;
  /// Controls recycled by reset(): per-actor bookkeeping (control,
  /// context, name capacity) is allocated once per engine lifetime,
  /// not once per replica, when engines are reused across a batch.
  std::vector<std::unique_ptr<detail::ActorControl>> spare_controls_;
  bool running_ = false;
};

/// --- inline hot-path definitions (need the full Engine class) ---
/// TimedSuspend and the Context activity constructors run a handful of
/// times per simulated chunk across every backend; keeping them in the
/// header lets the compiler fold them into the actor coroutines.

inline TimedSuspend::TimedSuspend(Engine& engine, detail::ActorControl& control,
                                  SimTime wake_at, ActorState during, MailboxBase* deliver,
                                  SimTime communicate_from, void* payload)
    : engine_(&engine), control_(&control), wake_at_(wake_at), during_(during),
      deliver_(deliver), communicate_from_(communicate_from), payload_(payload) {
  if (wake_at_ < engine_->now()) {
    throw std::logic_error("TimedSuspend: wake-up time lies in the past");
  }
}

inline bool TimedSuspend::await_ready() const noexcept {
  // Zero-duration activities complete immediately without suspension.
  // (A pending delivery always has wake_at > now, so it never skips
  // the suspension below.)
  return wake_at_ <= engine_->now();
}

inline void TimedSuspend::await_suspend(std::coroutine_handle<> handle) const {
  control_->set_state(during_, engine_->now());
  if (deliver_ != nullptr) {
    engine_->schedule_delivery_then_resume(wake_at_, *deliver_, handle, payload_);
  } else {
    engine_->schedule_resume(wake_at_, handle);
  }
}

inline void TimedSuspend::await_resume() const {
  if (communicate_from_ < wake_at_ && control_->state == during_) {
    // Two-phase accrual: close the `during` phase at the hand-off time
    // before the kReady transition charges the rest to kCommunicating.
    control_->set_state(ActorState::kCommunicating, communicate_from_);
  }
  if (control_->state != ActorState::kReady) {
    control_->set_state(ActorState::kReady, engine_->now());
  }
}

inline SimTime Context::now() const { return engine_->now(); }

inline TimedSuspend Context::execute(double flops) const {
  const SimTime end = host().finish_time(now(), flops);
  return TimedSuspend(*engine_, *control_, end, ActorState::kComputing);
}

inline TimedSuspend Context::compute_for(SimTime duration) const {
  if (duration < 0.0) throw std::invalid_argument("compute_for: negative duration");
  return TimedSuspend(*engine_, *control_, now() + duration, ActorState::kComputing);
}

inline TimedSuspend Context::sleep_for(SimTime duration) const {
  if (duration < 0.0) throw std::invalid_argument("sleep_for: negative duration");
  return TimedSuspend(*engine_, *control_, now() + duration, ActorState::kSleeping);
}

inline TimedSuspend Context::sleep_until(SimTime t) const {
  return TimedSuspend(*engine_, *control_, t, ActorState::kSleeping);
}

}  // namespace simx
