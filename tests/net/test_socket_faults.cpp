// Transport fault-injection battery for the serve-mode coordinator:
// scripted socket clients misbehave in every way the wire allows --
// connection reset mid-LEASE, truncation mid-FETCH, a client that
// connects but never HELLOs, auth/version failures, garbage frames, a
// checksum liar, a stale worker reconnecting after its lease was
// reclaimed, and a half-open link that stays connected but silent.
// In every case the coordinator must log the right death, reclaim the
// lease, finish the sweep through an honest worker, and produce
// byte-identical output; the lease/net invariants of check/dist.hpp
// and check/net.hpp must hold over the event log.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/dist.hpp"
#include "check/net.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

namespace {

using namespace std::chrono_literals;

constexpr const char* kSpec =
    "workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n"
    "sweep technique SS GSS TSS FAC2\nsweep workers 2 4\n";  // 8 cells
constexpr const char* kToken = "s3cret";

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/dls_netfault_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::system(("rm -rf " + path_).c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string serial_reference() {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(sweep::parse_grid(kSpec), {}, out);
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A serving coordinator on a loopback port-0 listener, running in its
// own thread, with the event stream captured for assertions.
class ServeFixture {
 public:
  explicit ServeFixture(const TempDir& dir, std::chrono::milliseconds lease_deadline = 600ms) {
    const std::string spec_path = dir.path() + "/grid.sweep";
    std::ofstream(spec_path) << kSpec;

    dist::CoordinatorOptions options;
    options.spec_path = spec_path;
    options.out_path = dir.path() + "/merged.jsonl";
    options.workdir = dir.path() + "/wd";
    options.workers = 2;
    options.heartbeat_interval = 50ms;
    options.lease_deadline = lease_deadline;
    options.backoff_base = 10ms;
    options.backoff_cap = 50ms;
    options.listen = "127.0.0.1:0";
    options.token = kToken;
    options.on_listening = [this](std::uint16_t port) {
      std::lock_guard<std::mutex> lock(mutex_);
      port_ = port;
    };
    options.on_event = [this](const dist::LeaseEvent& event) {
      std::lock_guard<std::mutex> lock(mutex_);
      events_.push_back(event);
    };
    out_path_ = options.out_path;
    thread_ = std::thread([this, options = std::move(options)]() mutable {
      try {
        report_ = dist::Coordinator(std::move(options)).run();
        ok_ = true;
      } catch (const std::exception& e) {
        failure_ = e.what();
      }
    });
  }

  ~ServeFixture() {
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() {
    for (int i = 0; i < 1000; ++i) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (port_ != 0) return port_;
      }
      std::this_thread::sleep_for(5ms);
    }
    ADD_FAILURE() << "listener never came up";
    return 0;
  }

  /// Block until an event satisfying `pred` has been logged.
  bool wait_for_event(const std::function<bool(const dist::LeaseEvent&)>& pred,
                      std::chrono::milliseconds timeout = 10s) {
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < give_up) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const dist::LeaseEvent& event : events_) {
          if (pred(event)) return true;
        }
      }
      std::this_thread::sleep_for(10ms);
    }
    return false;
  }

  bool wait_for_death(const std::string& detail) {
    return wait_for_event([&detail](const dist::LeaseEvent& e) {
      return e.kind == "dead" && e.detail == detail;
    });
  }

  /// Join the run and assert success + byte identity + invariants.
  void expect_clean_finish() {
    thread_.join();
    EXPECT_TRUE(ok_) << failure_;
    EXPECT_EQ(read_file(out_path_), serial_reference());
    std::lock_guard<std::mutex> lock(mutex_);
    EXPECT_EQ(check::check_lease_exclusivity(events_), std::nullopt);
    EXPECT_EQ(check::check_hello_before_lease(events_), std::nullopt);
    EXPECT_EQ(check::check_fetch_before_done(events_), std::nullopt);
  }

  [[nodiscard]] const dist::CoordinatorReport& report() const { return report_; }

  [[nodiscard]] std::vector<dist::LeaseEvent> events() {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  std::thread thread_;
  std::mutex mutex_;
  std::uint16_t port_ = 0;
  std::vector<dist::LeaseEvent> events_;
  dist::CoordinatorReport report_;
  bool ok_ = false;
  std::string failure_;
  std::string out_path_;
};

/// An honest in-process worker thread (the real dist::run_worker in
/// connect mode) that finishes whatever the fault clients abandon.
class HonestWorker {
 public:
  HonestWorker(const TempDir& dir, std::uint16_t port, const std::string& name) {
    const std::string workdir = dir.path() + "/" + name;
    EXPECT_EQ(std::system(("mkdir -p " + workdir).c_str()), 0);
    dist::WorkerOptions options;
    options.workdir = workdir;
    options.threads = 1;
    options.heartbeat_interval = 50ms;
    options.connect = "127.0.0.1:" + std::to_string(port);
    options.token = kToken;
    options.idle_timeout = 10s;
    thread_ = std::thread([options] { (void)dist::run_worker(options); });
  }
  ~HonestWorker() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

/// A scripted protocol client: speaks raw framed messages so tests
/// can stop at any point mid-dialogue.
class FaultClient {
 public:
  explicit FaultClient(std::uint16_t port)
      : transport_(net::connect_with_retry({"127.0.0.1", port}, 40, 25ms)) {}

  void hello(std::size_t version = dist::kProtocolVersion, const std::string& token = kToken) {
    ASSERT_TRUE(transport_.send(dist::encode(dist::WorkerMsg(dist::HelloMsg{version, token}))));
  }
  void ready() { ASSERT_TRUE(transport_.send(dist::encode(dist::WorkerMsg(dist::ReadyMsg{})))); }

  void send(const dist::WorkerMsg& msg) {
    ASSERT_TRUE(transport_.send(dist::encode(msg)));
  }

  /// Receive until a message whose verb matches, skipping PING/SPEC
  /// chatter.  Returns nullopt on timeout or closure.
  std::optional<dist::CoordinatorMsg> wait_for(const std::string& verb,
                                               std::chrono::milliseconds timeout = 10s) {
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    std::string line;
    while (std::chrono::steady_clock::now() < give_up) {
      const auto status = transport_.recv(line, 100ms);
      if (status == net::Transport::RecvStatus::closed) return std::nullopt;
      if (status != net::Transport::RecvStatus::ok) continue;
      if (line.rfind(verb, 0) == 0) {
        try {
          return dist::parse_coordinator_msg(line);
        } catch (const std::invalid_argument&) {
          ADD_FAILURE() << "unparseable coordinator line: " << line;
          return std::nullopt;
        }
      }
    }
    return std::nullopt;
  }

  void hangup() { transport_.shutdown(); }

  [[nodiscard]] net::Transport& transport() { return transport_; }

 private:
  net::Transport transport_;
};

TEST(SocketFaults, ConnectionResetMidLeaseReclaimsAndRetries) {
  const TempDir dir;
  ServeFixture serve(dir);
  const std::uint16_t port = serve.port();

  FaultClient deserter(port);
  deserter.hello();
  deserter.ready();
  const auto lease = deserter.wait_for("LEASE ");
  ASSERT_TRUE(lease.has_value());
  const auto& grant = std::get<dist::LeaseMsg>(*lease);
  deserter.hangup();  // RST/FIN with the lease held

  ASSERT_TRUE(serve.wait_for_event([&grant](const dist::LeaseEvent& e) {
    return e.kind == "reclaim" && e.stripe == grant.stripe;
  }));

  HonestWorker worker(dir, port, "honest");
  serve.expect_clean_finish();
  EXPECT_GE(serve.report().reclaims, 1u);
  EXPECT_GE(serve.report().workers_lost, 1u);
}

TEST(SocketFaults, NeverHelloClientIsEvictedOnTheHelloDeadline) {
  const TempDir dir;
  ServeFixture serve(dir, /*lease_deadline=*/300ms);
  const std::uint16_t port = serve.port();

  FaultClient mute(port);  // connects, then says nothing at all
  ASSERT_TRUE(serve.wait_for_death("hello-timeout"));
  mute.hangup();

  HonestWorker worker(dir, port, "honest");
  serve.expect_clean_finish();
}

TEST(SocketFaults, BadTokenBadVersionAndGarbageAreRejectedDistinctly) {
  const TempDir dir;
  ServeFixture serve(dir);
  const std::uint16_t port = serve.port();

  FaultClient intruder(port);
  intruder.hello(dist::kProtocolVersion, "wrong-token");
  ASSERT_TRUE(serve.wait_for_death("auth"));

  FaultClient relic(port);
  relic.hello(dist::kProtocolVersion + 7, kToken);
  ASSERT_TRUE(serve.wait_for_death("version"));

  FaultClient scrambler(port);
  scrambler.hello();
  ASSERT_TRUE(scrambler.transport().send(
      std::string("\x7f\x45\x4c\x46 this is not a protocol message", 36)));
  ASSERT_TRUE(serve.wait_for_death("protocol"));

  intruder.hangup();
  relic.hangup();
  scrambler.hangup();
  HonestWorker worker(dir, port, "honest");
  serve.expect_clean_finish();
  EXPECT_GE(serve.report().workers_lost, 3u);
}

TEST(SocketFaults, TruncationMidFetchReclaimsTheStillLeasedStripe) {
  const TempDir dir;
  ServeFixture serve(dir);
  const std::uint16_t port = serve.port();

  // Claim a stripe, report it DONE without computing anything, then
  // die after one short DATA chunk of the FETCH reply.  The stripe
  // never left the leased state, so the death must reclaim it and the
  // honest worker must recompute it from scratch.
  FaultClient cutter(port);
  cutter.hello();
  cutter.ready();
  const auto lease = cutter.wait_for("LEASE ");
  ASSERT_TRUE(lease.has_value());
  const auto& grant = std::get<dist::LeaseMsg>(*lease);
  cutter.send(dist::DoneMsg{grant.stripe, grant.attempt, 0, 0});
  ASSERT_TRUE(cutter.wait_for("FETCH ").has_value());
  dist::DataMsg chunk;
  chunk.stripe = grant.stripe;
  chunk.attempt = grant.attempt;
  chunk.offset = 0;
  chunk.total = 1 << 20;  // promises a megabyte...
  chunk.checksum = 0;
  chunk.bytes = "{\"partial\":";  // ...delivers eleven bytes
  cutter.send(chunk);
  cutter.hangup();

  ASSERT_TRUE(serve.wait_for_event([&grant](const dist::LeaseEvent& e) {
    return e.kind == "reclaim" && e.stripe == grant.stripe;
  }));

  HonestWorker worker(dir, port, "honest");
  serve.expect_clean_finish();
  // The fetch was logged but its done never arrived for that worker.
  EXPECT_GE(serve.report().reclaims, 1u);
}

TEST(SocketFaults, ChecksumMismatchIsAProtocolDeathNotACommit) {
  const TempDir dir;
  ServeFixture serve(dir);
  const std::uint16_t port = serve.port();

  FaultClient liar(port);
  liar.hello();
  liar.ready();
  const auto lease = liar.wait_for("LEASE ");
  ASSERT_TRUE(lease.has_value());
  const auto& grant = std::get<dist::LeaseMsg>(*lease);
  liar.send(dist::DoneMsg{grant.stripe, grant.attempt, 0, 0});
  ASSERT_TRUE(liar.wait_for("FETCH ").has_value());
  dist::DataMsg chunk;
  chunk.stripe = grant.stripe;
  chunk.attempt = grant.attempt;
  chunk.offset = 0;
  chunk.total = 9;
  chunk.checksum = 0xdeadbeef;  // not fnv1a64("forgery!\n")
  chunk.bytes = "forgery!\n";
  liar.send(chunk);

  ASSERT_TRUE(serve.wait_for_death("protocol"));
  liar.hangup();

  HonestWorker worker(dir, port, "honest");
  serve.expect_clean_finish();  // byte identity proves the forgery never landed
}

TEST(SocketFaults, StaleWorkerReconnectingAfterReclaimCannotCommit) {
  const TempDir dir;
  ServeFixture serve(dir);
  const std::uint16_t port = serve.port();

  // First life: take a lease and vanish.
  FaultClient first_life(port);
  first_life.hello();
  first_life.ready();
  const auto lease = first_life.wait_for("LEASE ");
  ASSERT_TRUE(lease.has_value());
  const auto& grant = std::get<dist::LeaseMsg>(*lease);
  first_life.hangup();
  ASSERT_TRUE(serve.wait_for_event([&grant](const dist::LeaseEvent& e) {
    return e.kind == "reclaim" && e.stripe == grant.stripe;
  }));

  // Second life: reconnect (a fresh link, so a fresh HELLO is owed)
  // and try to DONE the stripe from the dead lease.  No READY, so no
  // new lease is granted; the stale DONE must be ignored, not
  // committed and not crashed on.
  FaultClient second_life(port);
  second_life.hello();
  second_life.send(dist::DoneMsg{grant.stripe, grant.attempt, 0, 0});
  // The coordinator must NOT fetch from a worker that holds no lease.
  EXPECT_FALSE(second_life.wait_for("FETCH ", 500ms).has_value());
  second_life.hangup();

  HonestWorker worker(dir, port, "honest");
  serve.expect_clean_finish();
}

TEST(SocketFaults, HalfOpenLinkIsReclaimedByDeadlineWithoutAnEof) {
  // The coordinator-side half of the half-open-TCP fix: a client that
  // stays connected (no FIN, no RST -- drain would never report
  // closure) but stops sending after taking a lease must be reclaimed
  // by the lease deadline, exactly like a hung spawned worker.
  const TempDir dir;
  ServeFixture serve(dir, /*lease_deadline=*/400ms);
  const std::uint16_t port = serve.port();

  FaultClient zombie(port);
  zombie.hello();
  zombie.ready();
  ASSERT_TRUE(zombie.wait_for("LEASE ").has_value());
  // ...and now: nothing.  The fd stays open the whole run.

  ASSERT_TRUE(serve.wait_for_death("deadline"));

  HonestWorker worker(dir, port, "honest");
  serve.expect_clean_finish();
  zombie.hangup();
  EXPECT_GE(serve.report().reclaims, 1u);
}

}  // namespace
