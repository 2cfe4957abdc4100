#include "simx/engine.hpp"

#include <stdexcept>
#include <utility>

namespace simx {

Actor::~Actor() {
  if (handle_) handle_.destroy();
}

void Actor::promise_type::FinalAwaiter::await_suspend(Handle h) noexcept {
  detail::ActorControl* control = h.promise().control;
  if (control != nullptr) {
    control->finished = true;
    control->finished_at = control->engine->now();
    control->set_state(ActorState::kDone, control->finished_at);
  }
  // Remain suspended at the final point; the owning ActorControl
  // destroys the frame in ~Engine.
}

Engine::~Engine() {
  for (auto& control : actors_) {
    if (control->handle) control->handle.destroy();
  }
}

std::unique_ptr<detail::ActorControl> Engine::acquire_control(Host& host) {
  std::unique_ptr<detail::ActorControl> control;
  if (!spare_controls_.empty()) {
    control = std::move(spare_controls_.back());
    spare_controls_.pop_back();
    control->handle = {};
    control->exception = nullptr;
    control->finished = false;
    control->finished_at = 0.0;
    control->state = ActorState::kReady;
    control->accrued = {};
  } else {
    control = std::make_unique<detail::ActorControl>();
    control->engine = this;
    control->context = std::make_unique<Context>(*this, *control);
  }
  control->host = &host;
  control->last_transition = now_;
  return control;
}

Context& Engine::register_actor(std::unique_ptr<detail::ActorControl> control,
                                Actor::Handle handle) {
  control->handle = handle;
  handle.promise().control = control.get();
  schedule_resume(now_, handle);
  actors_.push_back(std::move(control));
  return *actors_.back()->context;
}

SimTime Engine::run() {
  if (running_) throw std::logic_error("Engine::run is not reentrant");
  running_ = true;
  while (!events_.empty()) {
    const Event event = events_.pop();
    now_ = event.time;
    if (event.mailbox != nullptr) {
      if (event.payload != nullptr) {
        event.mailbox->on_deliver_payload(event.payload);
      } else {
        event.mailbox->on_deliver();
      }
    }
    if (event.resume && !event.resume.done()) {
      event.resume.resume();
    }
  }
  running_ = false;
  for (const auto& control : actors_) {
    if (control->exception) std::rethrow_exception(control->exception);
  }
  return now_;
}

void Engine::reset() {
  if (running_) throw std::logic_error("Engine::reset is not allowed during run()");
  for (auto& control : actors_) {
    if (control->handle) {
      control->handle.destroy();
      control->handle = {};
    }
    // Recycle the bookkeeping: the next run's spawns reuse the control
    // and its Context instead of paying two allocations per actor per
    // replica.
    spare_controls_.push_back(std::move(control));
  }
  actors_.clear();
  events_.clear();  // keeps the queue's capacity and adapted geometry
  now_ = 0.0;
  sequence_ = 0;
}

void Engine::reserve_events(std::size_t count) { events_.reserve(count); }

ActorTimes Engine::actor_times(std::size_t index) const {
  const detail::ActorControl& control = *actors_.at(index);
  ActorTimes times;
  times.finished = control.finished;
  times.finished_at = control.finished_at;
  auto time_in = [&](ActorState s) {
    double t = control.time_in(s);
    if (control.state == s) t += now_ - control.last_transition;
    return t;
  };
  times.computing = time_in(ActorState::kComputing);
  times.communicating = time_in(ActorState::kCommunicating);
  times.sleeping = time_in(ActorState::kSleeping);
  times.waiting = time_in(ActorState::kWaitingRecv);
  return times;
}

bool Engine::all_finished() const {
  for (const auto& control : actors_) {
    if (!control->finished) return false;
  }
  return true;
}

std::vector<std::size_t> Engine::unfinished_actors() const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (!actors_[i]->finished) indices.push_back(i);
  }
  return indices;
}

}  // namespace simx
