#include <gtest/gtest.h>

#include <vector>

#include "simx/engine.hpp"
#include "simx/mailbox.hpp"

namespace {

using simx::ActorTimes;
using simx::Context;
using simx::Engine;
using simx::Platform;

Platform one_host() {
  Platform p;
  p.add_host(1e9);
  return p;
}

simx::Host& the_host(Engine& engine) { return engine.platform().host_at(0); }

// ----------------------------- actor bodies (free coroutine functions)

struct SleepState {
  double duration = 0.0;
  double woke_at = -1.0;
};

simx::Actor sleeper(Context& ctx, SleepState& st) {
  co_await ctx.sleep_for(st.duration);
  st.woke_at = ctx.now();
}

struct ExecState {
  double flops = 0.0;
  double finished_at = -1.0;
};

simx::Actor executor(Context& ctx, ExecState& st) {
  co_await ctx.execute(st.flops);
  st.finished_at = ctx.now();
}

struct TraceState {
  double delay = 0.0;
  int id = 0;
  std::vector<int>* order = nullptr;
};

simx::Actor tracer(Context& ctx, TraceState& st) {
  co_await ctx.sleep_for(st.delay);
  st.order->push_back(st.id);
}

simx::Actor thrower(Context& ctx, SleepState& st) {
  co_await ctx.sleep_for(st.duration);
  throw std::runtime_error("actor failure");
}

// ------------------------------------------------------------- tests

TEST(Engine, SleepAdvancesVirtualClock) {
  Engine engine(one_host());
  SleepState st{2.5, -1.0};
  engine.spawn(the_host(engine), [&st](Context& ctx) { return sleeper(ctx, st); });
  const double makespan = engine.run();
  EXPECT_DOUBLE_EQ(makespan, 2.5);
  EXPECT_DOUBLE_EQ(st.woke_at, 2.5);
}

TEST(Engine, ExecuteUsesHostSpeed) {
  Engine engine(one_host());  // 1e9 flops/s
  ExecState st{3e9, -1.0};
  engine.spawn(the_host(engine), [&st](Context& ctx) { return executor(ctx, st); });
  engine.run();
  EXPECT_DOUBLE_EQ(st.finished_at, 3.0);
}

TEST(Engine, ExecuteAccountsComputingTime) {
  Engine engine(one_host());
  ExecState st{2e9, -1.0};
  engine.spawn(the_host(engine), [&st](Context& ctx) { return executor(ctx, st); });
  engine.run();
  ASSERT_EQ(engine.actor_count(), 1u);
  const ActorTimes acc = engine.actor_times(0);
  EXPECT_DOUBLE_EQ(acc.computing, 2.0);
  EXPECT_DOUBLE_EQ(acc.waiting, 0.0);
  EXPECT_TRUE(acc.finished);
  EXPECT_DOUBLE_EQ(acc.finished_at, 2.0);
}

TEST(Engine, ActorsInterleaveInTimeOrder) {
  Engine engine(one_host());
  std::vector<int> order;
  TraceState a{3.0, 1, &order}, b{1.0, 2, &order}, c{2.0, 3, &order};
  for (TraceState* st : {&a, &b, &c}) {
    engine.spawn(the_host(engine), [st](Context& ctx) { return tracer(ctx, *st); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Engine, SimultaneousEventsFireInSpawnOrder) {
  Engine engine(one_host());
  std::vector<int> order;
  TraceState a{1.0, 1, &order}, b{1.0, 2, &order}, c{1.0, 3, &order};
  for (TraceState* st : {&a, &b, &c}) {
    engine.spawn(the_host(engine), [st](Context& ctx) { return tracer(ctx, *st); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Engine engine(one_host());
    std::vector<int> order;
    std::vector<TraceState> states;
    states.reserve(10);
    for (int i = 0; i < 10; ++i) {
      states.push_back(TraceState{static_cast<double>((i * 7) % 5), i, &order});
    }
    for (auto& st : states) {
      engine.spawn(the_host(engine), [&st](Context& ctx) { return tracer(ctx, st); });
    }
    engine.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ActorExceptionPropagatesFromRun) {
  Engine engine(one_host());
  SleepState st{1.0, -1.0};
  engine.spawn(the_host(engine), [&st](Context& ctx) { return thrower(ctx, st); });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, UnfinishedActorsAreReported) {
  Platform p = one_host();
  Engine engine(std::move(p));
  simx::Mailbox<int> mb(engine, the_host(engine));
  struct WaitState {
    simx::Mailbox<int>* mb;
  } wst{&mb};
  struct Body {
    static simx::Actor wait_forever(Context& ctx, WaitState& st) {
      (void)co_await st.mb->recv(ctx);
    }
  };
  engine.spawn(the_host(engine), [&wst](Context& ctx) { return Body::wait_forever(ctx, wst); });
  engine.run();  // no events: returns immediately at t=0... the initial
                 // resume runs the actor into recv, then nothing wakes it
  const auto stuck = engine.unfinished_actors();
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0], 0u);  // the spawn index
}

TEST(Engine, ZeroDurationActivitiesCostNothing) {
  Engine engine(one_host());
  ExecState st{0.0, -1.0};
  engine.spawn(the_host(engine), [&st](Context& ctx) { return executor(ctx, st); });
  const double makespan = engine.run();
  EXPECT_DOUBLE_EQ(makespan, 0.0);
  EXPECT_DOUBLE_EQ(st.finished_at, 0.0);
  EXPECT_DOUBLE_EQ(engine.actor_times(0).computing, 0.0);
}

TEST(Engine, NegativeDurationsRejected) {
  Engine engine(one_host());
  struct Body {
    static simx::Actor negative_sleep(Context& ctx) {
      co_await ctx.sleep_for(-1.0);
    }
  };
  engine.spawn(the_host(engine), [](Context& ctx) { return Body::negative_sleep(ctx); });
  EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(Engine, AccountedTimesSumToLifetime) {
  // Conservation of virtual time: for a finished actor, the sum of all
  // accounted states equals its finish time (kReady consumes none).
  Platform p = one_host();
  Engine engine(std::move(p));
  simx::Mailbox<int> mb(engine, the_host(engine));
  struct St {
    simx::Mailbox<int>* mb;
  } st{&mb};
  struct Body {
    static simx::Actor mixed(Context& ctx, St& s) {
      co_await ctx.execute(2e9);    // 2 s computing
      co_await ctx.sleep_for(1.5);  // 1.5 s sleeping
      (void)co_await s.mb->recv(ctx);  // waits 0.5 s
    }
  };
  engine.spawn(the_host(engine), [&st](Context& ctx) { return Body::mixed(ctx, st); });
  mb.put_delayed(7, 4.0);  // visible at t = 4.0
  engine.run();
  const ActorTimes acc = engine.actor_times(0);
  ASSERT_TRUE(acc.finished);
  EXPECT_DOUBLE_EQ(acc.computing, 2.0);
  EXPECT_DOUBLE_EQ(acc.sleeping, 1.5);
  EXPECT_DOUBLE_EQ(acc.waiting, 0.5);
  EXPECT_DOUBLE_EQ(acc.computing + acc.sleeping + acc.waiting + acc.communicating,
                   acc.finished_at);
}

TEST(Engine, SpawnDuringRunStartsAtCurrentTime) {
  Platform p = one_host();
  Engine engine(std::move(p));
  struct St {
    Engine* engine;
    double child_finish = -1.0;
  } st{&engine, -1.0};
  struct Body {
    static simx::Actor child(Context& ctx, St& s) {
      co_await ctx.sleep_for(1.0);
      s.child_finish = ctx.now();
    }
    static simx::Actor parent(Context& ctx, St& s) {
      co_await ctx.sleep_for(2.0);
      s.engine->spawn(ctx.host(), [&s](Context& c) { return child(c, s); });
    }
  };
  engine.spawn(the_host(engine), [&st](Context& ctx) { return Body::parent(ctx, st); });
  const double makespan = engine.run();
  EXPECT_DOUBLE_EQ(st.child_finish, 3.0);  // spawned at 2, sleeps 1
  EXPECT_DOUBLE_EQ(makespan, 3.0);
  EXPECT_TRUE(engine.unfinished_actors().empty());
}

TEST(Engine, ProfiledHostSlowsExecution) {
  Platform p;
  simx::Host& h = p.add_host(1e9);
  h.set_speed_profile(simx::SpeedProfile{{0.0, 1.0}, {1e9, 5e8}});
  Engine engine(std::move(p));
  ExecState st{2e9, -1.0};
  engine.spawn(the_host(engine), [&st](Context& ctx) { return executor(ctx, st); });
  engine.run();
  EXPECT_DOUBLE_EQ(st.finished_at, 3.0);  // 1s full speed + 2s half speed
}

}  // namespace
