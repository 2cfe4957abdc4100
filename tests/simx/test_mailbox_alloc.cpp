// Steady-state allocation accounting for the engine + mailbox reuse
// path: after a warm-up replica, re-running the same actor topology
// through Engine::reset() / Mailbox::reset() must not allocate per
// message -- only the per-replica coroutine frames remain.  The test
// overrides global operator new/delete (this binary only) and counts.
//
// Under a sanitizer the allocator is intercepted (and GCC's
// -Wmismatched-new-delete cannot see through the override), so the
// counting machinery is compiled out there; the functional half of the
// test -- message sums across reused replicas -- still runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "simx/engine.hpp"
#include "simx/mailbox.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DLS_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DLS_COUNT_ALLOCS 0
#endif
#endif
#ifndef DLS_COUNT_ALLOCS
#define DLS_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

#if DLS_COUNT_ALLOCS
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#endif  // DLS_COUNT_ALLOCS

namespace {

constexpr std::size_t kMessages = 256;

struct Message {
  double value = 0.0;
  std::size_t tag = 0;
};

struct PingState {
  simx::Mailbox<Message>* out = nullptr;
  simx::Mailbox<Message>* in = nullptr;
  double sum = 0.0;
};

simx::Actor pinger(simx::Context& ctx, PingState& st) {
  for (std::size_t i = 0; i < kMessages; ++i) {
    co_await st.out->send_from_delayed(ctx, Message{1.5, i}, 1e-3);
    const Message back = co_await st.in->recv(ctx);
    st.sum += back.value;
  }
}

simx::Actor ponger(simx::Context& ctx, PingState& st) {
  for (std::size_t i = 0; i < kMessages; ++i) {
    const Message m = co_await st.in->recv(ctx);
    co_await st.out->send_from_after(ctx, Message{m.value * 2.0, m.tag}, ctx.now() + 1e-4,
                                     1e-3);
  }
}

/// One replica through a reused engine/mailbox pair; returns the
/// number of global allocations it performed.
std::size_t replica(simx::Engine& engine, simx::Mailbox<Message>& ping_box,
                    simx::Mailbox<Message>& pong_box, PingState& a, PingState& b) {
  const std::size_t before = g_allocations.load();
  engine.spawn(engine.platform().host_at(0), [&](simx::Context& ctx) { return pinger(ctx, a); });
  engine.spawn(engine.platform().host_at(1), [&](simx::Context& ctx) { return ponger(ctx, b); });
  engine.run();
  engine.reset();
  ping_box.reset();
  pong_box.reset();
  return g_allocations.load() - before;
}

TEST(MailboxAlloc, SteadyStateReplicasDoNotAllocatePerMessage) {
  simx::Platform platform;
  simx::Host& ha = platform.add_host(1e9);
  simx::Host& hb = platform.add_host(1e9);
  const std::size_t link = platform.add_link(1e8, 1e-6);
  platform.add_route(ha.index(), hb.index(), {&link, 1});
  simx::Engine engine(std::move(platform));

  simx::Mailbox<Message> ping_box(engine, hb);
  simx::Mailbox<Message> pong_box(engine, ha);
  ping_box.reserve(4);
  pong_box.reserve(4);
  PingState a{&ping_box, &pong_box, 0.0};
  PingState b{&pong_box, &ping_box, 0.0};

  // Warm-up: vectors, controls, frames and queue geometry all grow.
  (void)replica(engine, ping_box, pong_box, a, b);
  ASSERT_DOUBLE_EQ(a.sum, 3.0 * kMessages);

  // Steady state: the only acceptable allocations are the per-replica
  // coroutine frames (two actors) plus a small constant slack; with
  // 2 * kMessages messages flowing, anything per-message would blow
  // straight through the bound.
  for (int lap = 0; lap < 3; ++lap) {
    a.sum = 0.0;
    const std::size_t allocs = replica(engine, ping_box, pong_box, a, b);
    EXPECT_DOUBLE_EQ(a.sum, 3.0 * kMessages);
    if (DLS_COUNT_ALLOCS) {
      EXPECT_LE(allocs, 8u) << "lap " << lap;
    }
  }
}

}  // namespace
