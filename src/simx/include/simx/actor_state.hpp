#pragma once

#include <array>
#include <cstddef>

#include "simx/speed_profile.hpp"

namespace simx {

/// What a simulated actor is doing.  Virtual time is accounted per
/// state, which is the raw material of every metric in the paper
/// (compute time, idle/waiting time, communication time).
enum class ActorState : std::size_t {
  kReady = 0,      ///< running (zero virtual time is spent here)
  kComputing,      ///< executing work or a scheduling overhead
  kCommunicating,  ///< inside a blocking send
  kWaitingRecv,    ///< blocked on a receive -- idle time
  kDone,           ///< finished
};
inline constexpr std::size_t kActorStateCount = 5;

/// One actor's state and the virtual time it has accrued in each state.
/// A simulation calls set_state at every transition; the time since the
/// previous transition is charged to the state being left.
struct ActorClock {
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

}  // namespace simx
