#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simx/engine.hpp"
#include "simx/mailbox.hpp"

namespace {

using simx::Context;
using simx::Engine;
using simx::Mailbox;
using simx::Platform;

/// Host 0 ("a", the sender's) and host 1 ("b", the receiver's), joined
/// by one link.
Platform two_hosts(double latency = 0.5) {
  Platform p;
  p.add_host(1e9);
  p.add_host(1e9);
  const std::size_t link = p.add_link(1e6, latency);
  p.add_route(0, 1, {&link, 1});
  return p;
}

simx::Host& host_a(Engine& engine) { return engine.platform().host_at(0); }
simx::Host& host_b(Engine& engine) { return engine.platform().host_at(1); }

struct PingState {
  Mailbox<int>* box = nullptr;
  int payload = 0;
  std::size_t bytes = 0;
  double sent_done_at = -1.0;
};

simx::Actor pinger(Context& ctx, PingState& st) {
  co_await st.box->send_from(ctx, st.payload, st.bytes);
  st.sent_done_at = ctx.now();
}

simx::Actor async_pinger(Context& ctx, PingState& st) {
  st.box->put_from(ctx.host(), st.payload, st.bytes);
  st.sent_done_at = ctx.now();
  co_return;
}

struct PongState {
  Mailbox<int>* box = nullptr;
  int received = 0;
  double received_at = -1.0;
};

simx::Actor ponger(Context& ctx, PongState& st) {
  st.received = co_await st.box->recv(ctx);
  st.received_at = ctx.now();
}

struct MultiRecvState {
  Mailbox<int>* box = nullptr;
  std::size_t count = 0;
  std::vector<int> received;
};

simx::Actor multi_receiver(Context& ctx, MultiRecvState& st) {
  for (std::size_t i = 0; i < st.count; ++i) {
    st.received.push_back(co_await st.box->recv(ctx));
  }
}

struct MultiSendState {
  Mailbox<int>* box = nullptr;
  std::vector<std::pair<int, double>> messages;  // payload, explicit delay
};

simx::Actor multi_sender(Context&, MultiSendState& st) {
  for (const auto& [payload, delay] : st.messages) {
    st.box->put_delayed(payload, delay);
  }
  co_return;
}

TEST(Mailbox, MessageArrivesAfterRouteLatency) {
  Engine engine(two_hosts(0.5));
  Mailbox<int> box(engine, host_b(engine));
  PingState ping{&box, 42, 0, -1.0};
  PongState pong{&box, 0, -1.0};
  engine.spawn(host_b(engine), [&pong](Context& ctx) { return ponger(ctx, pong); });
  engine.spawn(host_a(engine), [&ping](Context& ctx) { return pinger(ctx, ping); });
  engine.run();
  EXPECT_EQ(pong.received, 42);
  EXPECT_DOUBLE_EQ(pong.received_at, 0.5);
  EXPECT_DOUBLE_EQ(ping.sent_done_at, 0.5);  // blocking send
}

TEST(Mailbox, TransferTimeIncludesBandwidth) {
  Engine engine(two_hosts(0.5));  // bandwidth 1e6
  Mailbox<int> box(engine, host_b(engine));
  PingState ping{&box, 1, 1000000, -1.0};  // 1 MB -> 1 s transfer
  PongState pong{&box, 0, -1.0};
  engine.spawn(host_b(engine), [&pong](Context& ctx) { return ponger(ctx, pong); });
  engine.spawn(host_a(engine), [&ping](Context& ctx) { return pinger(ctx, ping); });
  engine.run();
  EXPECT_DOUBLE_EQ(pong.received_at, 1.5);
}

TEST(Mailbox, AsyncPutDoesNotBlockSender) {
  Engine engine(two_hosts(0.5));
  Mailbox<int> box(engine, host_b(engine));
  PingState ping{&box, 7, 0, -1.0};
  PongState pong{&box, 0, -1.0};
  engine.spawn(host_b(engine), [&pong](Context& ctx) { return ponger(ctx, pong); });
  engine.spawn(host_a(engine), [&ping](Context& ctx) { return async_pinger(ctx, ping); });
  engine.run();
  EXPECT_DOUBLE_EQ(ping.sent_done_at, 0.0);  // sender returned immediately
  EXPECT_DOUBLE_EQ(pong.received_at, 0.5);   // message still took the route
}

TEST(Mailbox, BlockingSendAccountsCommunicating) {
  Engine engine(two_hosts(0.5));
  Mailbox<int> box(engine, host_b(engine));
  PingState ping{&box, 7, 0, -1.0};
  PongState pong{&box, 0, -1.0};
  engine.spawn(host_b(engine), [&pong](Context& ctx) { return ponger(ctx, pong); });
  engine.spawn(host_a(engine), [&ping](Context& ctx) { return pinger(ctx, ping); });
  engine.run();
  EXPECT_DOUBLE_EQ(engine.actor_times(1).communicating, 0.5);  // sender
  EXPECT_DOUBLE_EQ(engine.actor_times(0).waiting, 0.5);        // receiver idled
}

TEST(Mailbox, QueuedMessageReceivedWithoutWaiting) {
  Engine engine(two_hosts(0.0));
  Mailbox<int> box(engine, host_b(engine));
  // Message injected before the receiver even starts.
  box.put_delayed(99, 0.0);
  PongState pong{&box, 0, -1.0};
  engine.spawn(host_b(engine), [&pong](Context& ctx) { return ponger(ctx, pong); });
  engine.run();
  EXPECT_EQ(pong.received, 99);
  EXPECT_DOUBLE_EQ(pong.received_at, 0.0);
  EXPECT_DOUBLE_EQ(engine.actor_times(0).waiting, 0.0);
}

TEST(Mailbox, DeliveryOrderFollowsVisibleTimeNotPostOrder) {
  Engine engine(two_hosts(0.0));
  Mailbox<int> box(engine, host_b(engine));
  MultiSendState send{&box, {{1, 3.0}, {2, 1.0}, {3, 2.0}}};  // posted 1,2,3
  MultiRecvState recv{&box, 3, {}};
  engine.spawn(host_b(engine), [&recv](Context& ctx) { return multi_receiver(ctx, recv); });
  engine.spawn(host_a(engine), [&send](Context& ctx) { return multi_sender(ctx, send); });
  engine.run();
  EXPECT_EQ(recv.received, (std::vector<int>{2, 3, 1}));  // by arrival time
}

TEST(Mailbox, SameDelayPreservesPostOrder) {
  Engine engine(two_hosts(0.0));
  Mailbox<int> box(engine, host_b(engine));
  MultiSendState send{&box, {{10, 1.0}, {20, 1.0}, {30, 1.0}}};
  MultiRecvState recv{&box, 3, {}};
  engine.spawn(host_b(engine), [&recv](Context& ctx) { return multi_receiver(ctx, recv); });
  engine.spawn(host_a(engine), [&send](Context& ctx) { return multi_sender(ctx, send); });
  engine.run();
  EXPECT_EQ(recv.received, (std::vector<int>{10, 20, 30}));
}

TEST(Mailbox, MultipleWaitersWokenFifo) {
  Engine engine(two_hosts(0.0));
  Mailbox<int> box(engine, host_b(engine));
  PongState w1{&box, 0, -1.0}, w2{&box, 0, -1.0};
  engine.spawn(host_b(engine), [&w1](Context& ctx) { return ponger(ctx, w1); });
  engine.spawn(host_b(engine), [&w2](Context& ctx) { return ponger(ctx, w2); });
  MultiSendState send{&box, {{111, 1.0}, {222, 2.0}}};
  engine.spawn(host_a(engine), [&send](Context& ctx) { return multi_sender(ctx, send); });
  engine.run();
  EXPECT_EQ(w1.received, 111);  // first waiter gets first message
  EXPECT_EQ(w2.received, 222);
  EXPECT_DOUBLE_EQ(w1.received_at, 1.0);
  EXPECT_DOUBLE_EQ(w2.received_at, 2.0);
}

TEST(Mailbox, CountsTrackReadyAndInFlight) {
  Engine engine(two_hosts(0.0));
  Mailbox<int> box(engine, host_b(engine));
  box.put_delayed(1, 5.0);
  EXPECT_EQ(box.in_flight_count(), 1u);
  EXPECT_EQ(box.ready_count(), 0u);
  engine.run();  // delivery event fires at t=5
  EXPECT_EQ(box.in_flight_count(), 0u);
  EXPECT_EQ(box.ready_count(), 1u);
}

TEST(Mailbox, NegativeDelayRejected) {
  Engine engine(two_hosts(0.0));
  Mailbox<int> box(engine, host_b(engine));
  EXPECT_THROW(box.put_delayed(1, -0.1), std::invalid_argument);
}

TEST(Mailbox, MovesLargePayloadsByValueType) {
  Engine engine(two_hosts(0.0));
  Mailbox<std::string> box(engine, host_b(engine));
  box.put_delayed(std::string(1000, 'x'), 0.0);
  struct St {
    Mailbox<std::string>* box;
    std::string got;
  } st{&box, {}};
  struct Body {
    static simx::Actor recv_one(Context& ctx, St& s) { s.got = co_await s.box->recv(ctx); }
  };
  engine.spawn(host_b(engine), [&st](Context& ctx) { return Body::recv_one(ctx, st); });
  engine.run();
  EXPECT_EQ(st.got.size(), 1000u);
}

}  // namespace
