// Transport-layer tests: net::Transport over a socketpair, the
// clean-EOF vs garbled-stream distinction drain() reports, connector
// retry exhaustion, and the worker-side idle-timeout regression (a
// half-open TCP link never EOFs -- the worker must give up on its own
// clock, not wait for a hangup that never comes).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dist/worker.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace {

using namespace std::chrono_literals;

// A connected nonblocking AF_UNIX pair standing in for the TCP link
// (same fd semantics, no port to leak between parallel tests).
std::pair<int, int> socket_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  return {fds[0], fds[1]};
}

TEST(Transport, MessagesRoundTripBothWays) {
  const auto [a, b] = socket_pair();
  net::Transport left(a);
  net::Transport right(b);

  ASSERT_TRUE(left.send("LEASE 0 4 0 -"));
  ASSERT_TRUE(left.send("PING"));
  std::string message;
  ASSERT_EQ(right.recv(message, 1000ms), net::Transport::RecvStatus::ok);
  EXPECT_EQ(message, "LEASE 0 4 0 -");
  ASSERT_EQ(right.recv(message, 1000ms), net::Transport::RecvStatus::ok);
  EXPECT_EQ(message, "PING");

  ASSERT_TRUE(right.send("HB 7"));
  ASSERT_EQ(left.recv(message, 1000ms), net::Transport::RecvStatus::ok);
  EXPECT_EQ(message, "HB 7");
}

TEST(Transport, BinaryPayloadsSurviveFraming) {
  const auto [a, b] = socket_pair();
  net::Transport left(a);
  net::Transport right(b);
  const std::string spec = std::string("SPEC tasks 8\nseed 1\n\0#\n", 24);
  ASSERT_TRUE(left.send(spec));
  std::string message;
  ASSERT_EQ(right.recv(message, 1000ms), net::Transport::RecvStatus::ok);
  EXPECT_EQ(message, spec);
}

TEST(Transport, RecvTimesOutOnASilentPeer) {
  const auto [a, b] = socket_pair();
  net::Transport left(a);
  net::Transport right(b);
  std::string message;
  EXPECT_EQ(right.recv(message, 50ms), net::Transport::RecvStatus::timeout);
  (void)left;
}

TEST(Transport, CleanShutdownDrainsAsEofWithEmptyError) {
  const auto [a, b] = socket_pair();
  auto left = std::make_unique<net::Transport>(a);
  net::Transport right(b);
  ASSERT_TRUE(left->send("READY"));
  left.reset();  // closes the fd: FIN between frames = orderly exit

  std::vector<std::string> out;
  // Wait for the FIN to be observable, then drain: the READY must
  // arrive, then closure with error() empty (clean EOF, not garbage).
  std::string message;
  ASSERT_EQ(right.recv(message, 1000ms), net::Transport::RecvStatus::ok);
  EXPECT_EQ(message, "READY");
  EXPECT_EQ(right.recv(message, 1000ms), net::Transport::RecvStatus::closed);
  EXPECT_TRUE(right.error().empty()) << right.error();
}

TEST(Transport, EofMidFrameIsAnError) {
  const auto [a, b] = socket_pair();
  net::Transport right(b);
  ASSERT_EQ(::write(a, "#100\npartial", 12), 12);
  ::close(a);

  std::string message;
  EXPECT_EQ(right.recv(message, 1000ms), net::Transport::RecvStatus::closed);
  EXPECT_FALSE(right.error().empty());  // died mid-frame, not orderly
}

TEST(Transport, GarbledStreamIsAProtocolErrorNotAnEof) {
  const auto [a, b] = socket_pair();
  net::Transport right(b);
  ASSERT_EQ(::write(a, "not a frame", 11), 11);

  std::string message;
  EXPECT_EQ(right.recv(message, 1000ms), net::Transport::RecvStatus::closed);
  EXPECT_NE(right.error().find("frame"), std::string::npos) << right.error();
  ::close(a);
}

TEST(Transport, SendFailsOnceThePeerIsGone) {
  const auto [a, b] = socket_pair();
  net::Transport left(a);
  ::close(b);
  // The first send may still land in the kernel buffer; hammering a
  // closed peer must turn into failure, never a SIGPIPE crash.
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) failed = !left.send("PING");
  EXPECT_TRUE(failed);
}

TEST(Connector, RetryExhaustionThrowsNamingTheAddress) {
  // A port nothing listens on: bind-then-close guarantees it was free
  // a moment ago, so connect gets ECONNREFUSED, not a firewall hang.
  std::uint16_t dead_port = 0;
  {
    net::Listener probe(net::parse_host_port("127.0.0.1:0"));
    dead_port = probe.port();
  }
  try {
    (void)net::connect_with_retry({"127.0.0.1", dead_port}, 3, 1ms);
    FAIL() << "connected to a closed port";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("127.0.0.1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("3 attempt"), std::string::npos) << e.what();
  }
}

TEST(Connector, ReachesAListenerThatComesUpLate) {
  // The worker-before-coordinator race the retry loop exists for.
  net::Listener listener(net::parse_host_port("127.0.0.1:0"));
  const std::uint16_t port = listener.port();
  std::thread dialer([port] {
    const int fd = net::connect_with_retry({"127.0.0.1", port}, 40, 10ms);
    EXPECT_GE(fd, 0);
    ::close(fd);
  });
  int accepted = -1;
  for (int i = 0; i < 500 && accepted < 0; ++i) {
    accepted = listener.accept_nonblocking();
    if (accepted < 0) std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(accepted, 0);
  if (accepted >= 0) ::close(accepted);
  dialer.join();
}

constexpr const char* kWorkerSpec =
    "workload exponential:1.0\ntasks 8\nh 0.5\nseed 1\nreplicas 1\nworkers 4\n";

std::string spec_message() { return dist::encode(dist::CoordinatorMsg(dist::SpecMsg{kWorkerSpec})); }

// The half-open-link regression: a coordinator that answers HELLO
// with SPEC and then never sends another byte (packets dropped; no
// FIN, no RST).  Before the idle-timeout path, the worker's recv loop
// would block forever on a link like this; now it must give up after
// options.idle_timeout and exit 1 so the host's slot can be re-fired.
TEST(WorkerIdleTimeout, SilentLinkMakesTheWorkerGiveUpAndExitOne) {
  const auto [a, b] = socket_pair();
  net::Transport coordinator_side(a);  // held open, never read again
  net::Transport worker_side(b);
  ASSERT_TRUE(coordinator_side.send(spec_message()));

  dist::WorkerOptions options;
  options.heartbeat_interval = 20ms;
  options.idle_timeout = 150ms;

  const auto start = std::chrono::steady_clock::now();
  const int rc = dist::run_worker_on_transport(options, worker_side);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(rc, 1);              // gave up; the slot is re-firable
  EXPECT_GE(elapsed, 140ms);     // ...but only after the idle window
  EXPECT_LT(elapsed, 5s);        // and well before "forever"
}

TEST(WorkerIdleTimeout, TrafficKeepsTheWorkerAlivePastTheWindow) {
  // PINGs (or any message) reset the idle clock: a worker fed
  // keepalives for 3x its idle window must still be waiting, and then
  // exit 0 on QUIT -- proving the timeout measures silence, not age.
  const auto [a, b] = socket_pair();
  net::Transport coordinator_side(a);
  net::Transport worker_side(b);
  ASSERT_TRUE(coordinator_side.send(spec_message()));

  dist::WorkerOptions options;
  options.heartbeat_interval = 20ms;
  options.idle_timeout = 200ms;

  std::thread pinger([&coordinator_side] {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(coordinator_side.send("PING"));
      std::this_thread::sleep_for(50ms);
    }
    ASSERT_TRUE(coordinator_side.send("QUIT"));
  });
  const int rc = dist::run_worker_on_transport(options, worker_side);
  pinger.join();
  EXPECT_EQ(rc, 0);
}

}  // namespace
