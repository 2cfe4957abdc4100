// Process-level tests of `dls_sweep coordinate` / `work` (the real
// binary, via DLS_SWEEP_BIN): a sweep that loses workers mid-run --
// clean kills, torn-record kills, or silent hangs -- must exit 0 with
// a merged output byte-identical to a serial run, and its lease-event
// log must satisfy the exclusivity invariant.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/dist.hpp"
#include "dist/protocol.hpp"
#include "net/transport.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

namespace {

constexpr const char* kSpec =
    "workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n"
    "sweep technique SS GSS TSS FAC2\nsweep workers 2 4\n";  // 8 cells

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/dls_coord_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::system(("rm -rf " + path_).c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Exit code of `dls_sweep <args>`; its stderr lands in `stderr_text`
/// when given, and is discarded otherwise (as is its stdout).
int run_tool(const std::string& args, std::string* stderr_text = nullptr) {
  const std::string command = std::string(DLS_SWEEP_BIN) + " " + args + " 2>&1 >/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  std::string text;
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    text.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  if (stderr_text != nullptr) *stderr_text = std::move(text);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string serial_reference(const char* spec = kSpec) {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(sweep::parse_grid(spec), {}, out);
  return out.str();
}

std::string write_spec(const TempDir& dir, const char* spec = kSpec) {
  const std::string path = dir.path() + "/grid.sweep";
  std::ofstream out(path);
  out << spec;
  return path;
}

std::vector<dist::LeaseEvent> read_events(const std::string& path) {
  std::vector<dist::LeaseEvent> events;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (auto event = dist::parse_lease_event(line)) events.push_back(std::move(*event));
  }
  return events;
}

TEST(CoordinateTool, CleanFourWorkerRunMatchesSerialByteForByte) {
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 4 --threads 1 --quiet"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());
  EXPECT_EQ(check::check_lease_exclusivity(read_events(dir.path() + "/wd/events.jsonl")),
            std::nullopt);
}

TEST(CoordinateTool, LosingTwoOfFourWorkersStillMatchesSerial) {
  // The tentpole acceptance scenario: worker 0 SIGKILLed between
  // records, worker 1 killed mid-record write (torn tail).  Their
  // leases must be reclaimed and retried, and the merged output must
  // be bitwise identical to the uninterrupted serial run.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 4 --threads 1 --quiet --chaos 0:1:kill,1:1:truncate "
                     "--backoff-ms 10"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());

  const std::vector<dist::LeaseEvent> events = read_events(dir.path() + "/wd/events.jsonl");
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
  std::size_t reclaims = 0;
  std::size_t dead = 0;
  for (const dist::LeaseEvent& event : events) {
    if (event.kind == "reclaim") ++reclaims;
    if (event.kind == "dead") ++dead;
  }
  EXPECT_GE(dead, 2u);     // both chaos victims died
  EXPECT_GE(reclaims, 2u);  // and their leases were taken back
}

TEST(CoordinateTool, HungWorkerIsReclaimedByDeadline) {
  // A hung worker (alive, link open, heartbeat silenced) is invisible
  // to EOF detection -- only the lease deadline can reclaim it.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 2 --threads 1 --quiet --chaos 1:1:hang "
                     "--heartbeat-ms 30 --deadline-ms 300 --backoff-ms 10"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());

  bool deadline_reclaim = false;
  for (const dist::LeaseEvent& event : read_events(dir.path() + "/wd/events.jsonl")) {
    deadline_reclaim |= event.kind == "dead" && event.detail == "deadline";
  }
  EXPECT_TRUE(deadline_reclaim);
}

TEST(CoordinateTool, SeededChaosMatchesSerial) {
  // The CI chaos job's form: victims and kill points derived from a
  // seed, 2 of 4 workers lost.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 4 --threads 1 --quiet --chaos-seed 20170529 "
                     "--chaos-kills 2 --backoff-ms 10"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());
}

TEST(CoordinateTool, RestartedCoordinatorAdoptsAndResumesPriorWork) {
  // Kill the whole first run early (chaos takes out the only worker ->
  // the coordinator fails loudly), then re-run with the same workdir:
  // published stripes are adopted, partial attempts resumed, and the
  // final output is still byte-identical.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  // Stripe count pinned across the two runs: lease identity is shard
  // identity, so a restart must re-stripe the grid the same way.
  EXPECT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 1 --stripes 4 --threads 1 --quiet --chaos 0:3:kill "
                     "--backoff-ms 10"),
            1);
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 2 --stripes 4 --threads 1 --quiet --backoff-ms 10"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());
  // The appended two-run log must still replay cleanly (seq resets).
  EXPECT_EQ(check::check_lease_exclusivity(read_events(dir.path() + "/wd/events.jsonl")),
            std::nullopt);
}

TEST(CoordinateTool, DeathMidFetchAdoptsTheSharedPublishedStripe) {
  // Worker 0 publishes its first stripe, then dies part-way through
  // the FETCH reply.  The stripe file is already in the shared workdir,
  // so the coordinator adopts it -- an adopt event ends that lease in
  // place of a reclaim -- and the output still matches serial.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 4 --threads 1 --quiet --chaos 0:1:fetchcut"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());

  const std::vector<dist::LeaseEvent> events = read_events(dir.path() + "/wd/events.jsonl");
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
  std::size_t adopted = 0;
  for (const dist::LeaseEvent& event : events) {
    if (event.kind == "adopt" && event.worker == 0) ++adopted;
    EXPECT_FALSE(event.kind == "reclaim" && event.worker == 0);
  }
  EXPECT_EQ(adopted, 1u);
}

TEST(CoordinateTool, FastHeartbeatNeverKillsAWorkerMidLease) {
  // A leased worker does not read its link until the stripe is done,
  // so pings queued to it would pile up in the socket buffer until a
  // send failed and a healthy worker was killed.  At a 1 ms heartbeat a
  // one-cell stripe of over a second must still finish on its first
  // lease, with no death and no reclaim.
  constexpr const char* kSlowSpec =
      "workload exponential:1.0\ntasks 65536\nh 0.5\nseed 42\ntechnique SS\nworkers 16\n"
      "replicas 100\n";
  const TempDir dir;
  const std::string spec = write_spec(dir, kSlowSpec);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 2 --threads 1 --quiet --heartbeat-ms 1"),
            0);
  EXPECT_EQ(read_file(out), serial_reference(kSlowSpec));

  const std::vector<dist::LeaseEvent> events = read_events(dir.path() + "/wd/events.jsonl");
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
  std::size_t leases = 0;
  for (const dist::LeaseEvent& event : events) {
    EXPECT_NE(event.kind, "dead");
    EXPECT_NE(event.kind, "reclaim");
    if (event.kind == "lease") ++leases;
  }
  EXPECT_EQ(leases, 1u);
}

TEST(CoordinateTool, UsageAndSpecErrorsExitTwo) {
  const TempDir dir;
  const std::string spec = write_spec(dir);
  // Missing --out / --workdir.
  EXPECT_EQ(run_tool("coordinate " + spec), 2);
  // Unreadable spec.
  EXPECT_EQ(run_tool("coordinate " + dir.path() + "/nope.sweep --out o --workdir " + dir.path() +
                     "/wd"),
            2);
  // Malformed spec.
  std::ofstream(dir.path() + "/bad.sweep") << "sweep technique\n";
  EXPECT_EQ(run_tool("coordinate " + dir.path() + "/bad.sweep --out o --workdir " + dir.path() +
                     "/wd"),
            2);
  // Conflicting chaos forms.
  EXPECT_EQ(run_tool("coordinate " + spec + " --out o --workdir w --chaos 0:1 --chaos-kills 1"),
            2);

  // Chaos directives that could never fire: a worker past --workers,
  // and a second directive for one worker.  Each names the directive.
  std::string err;
  EXPECT_EQ(
      run_tool("coordinate " + spec + " --out o --workdir w --workers 2 --chaos 7:1:kill", &err),
      2);
  EXPECT_NE(err.find("7:1:kill"), std::string::npos) << err;
  EXPECT_EQ(run_tool("coordinate " + spec + " --out o --workdir w --chaos 0:1:kill,0:2:hang", &err),
            2);
  EXPECT_NE(err.find("0:2:hang"), std::string::npos) << err;

  // Liveness flags that would kill healthy workers: no heartbeat, or
  // a deadline no longer than one heartbeat interval.
  for (const std::string& mode : {"coordinate " + spec + " --out o --workdir w",
                                 "serve " + spec + " --listen 127.0.0.1:0 --out o --workdir w"}) {
    EXPECT_EQ(run_tool(mode + " --heartbeat-ms 0"), 2) << mode;
    EXPECT_EQ(run_tool(mode + " --deadline-ms 0"), 2) << mode;
    EXPECT_EQ(run_tool(mode + " --heartbeat-ms 2000 --deadline-ms 300", &err), 2) << mode;
    EXPECT_NE(err.find("2000"), std::string::npos) << err;
    EXPECT_NE(err.find("300"), std::string::npos) << err;
  }
  EXPECT_EQ(run_tool("work --dir " + dir.path() + " --heartbeat-ms 0", &err), 2);
  EXPECT_NE(err.find("--heartbeat-ms"), std::string::npos) << err;
}

TEST(WorkTool, RejectsMissingDirAndBadSpec) {
  const TempDir dir;
  const std::string spec = write_spec(dir);
  EXPECT_EQ(run_tool("work " + spec + " </dev/null"), 2);
  EXPECT_EQ(run_tool("work " + dir.path() + "/nope.sweep --dir " + dir.path() + " </dev/null"),
            2);
  // The grid only ever arrives over the wire: no spec positional, and
  // without --connect stdin must be the link.
  std::string err;
  EXPECT_EQ(run_tool("work " + spec + " --dir " + dir.path() + " </dev/null", &err), 2);
  EXPECT_NE(err.find("no spec file"), std::string::npos) << err;
  EXPECT_EQ(run_tool("work --dir " + dir.path() + " </dev/null", &err), 2);
  EXPECT_NE(err.find("not a socket"), std::string::npos) << err;
}

TEST(WorkTool, ServesALeaseOverStdinAndPublishesTheStripe) {
  // Drive one worker by hand on a socketpair as its stdin, the way
  // `coordinate` spawns it: HELLO, SPEC, READY, LEASE stripe 0 of 2,
  // DONE, FETCH, QUIT.  The stripe file must appear (published
  // atomically), hold exactly the records of shard 0/2, and stream
  // back over DATA byte for byte.
  using namespace std::chrono_literals;
  const TempDir dir;
  const std::string wd = dir.path() + "/wd";
  ASSERT_EQ(std::system(("mkdir -p " + wd).c_str()), 0);
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(ends[1], STDIN_FILENO);
    ::execl(DLS_SWEEP_BIN, DLS_SWEEP_BIN, "work", "--dir", wd.c_str(), "--threads", "1",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(ends[1]);
  net::Transport link(ends[0]);
  const auto next = [&link] {  // the next message that is not a heartbeat
    std::string message;
    do {
      if (link.recv(message, 10s) != net::Transport::RecvStatus::ok) return std::string("<none>");
    } while (message.starts_with("HB "));
    return message;
  };

  EXPECT_TRUE(next().starts_with("HELLO "));
  ASSERT_TRUE(link.send(dist::encode(dist::CoordinatorMsg(dist::SpecMsg{kSpec}))));
  EXPECT_EQ(next(), "READY");
  ASSERT_TRUE(link.send("LEASE 0 2 0 -"));
  const std::string done = next();
  EXPECT_TRUE(done.starts_with("DONE 0 0 ")) << done;
  ASSERT_TRUE(link.send("FETCH 0 0"));
  std::string fetched;
  for (;;) {
    const std::string message = next();
    const dist::WorkerMsg msg = dist::parse_worker_msg(message);
    const auto* data = std::get_if<dist::DataMsg>(&msg);
    ASSERT_NE(data, nullptr) << message;
    fetched += data->bytes;
    if (fetched.size() >= data->total) break;
  }
  ASSERT_TRUE(link.send("QUIT"));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  sweep::SweepRunner::Options options;
  options.shard_index = 0;
  options.shard_count = 2;
  std::ostringstream expected;
  (void)sweep::SweepRunner(options).run(sweep::parse_grid(kSpec), {}, expected);
  EXPECT_EQ(read_file(dist::stripe_final_path(wd, 0)), expected.str());
  EXPECT_EQ(fetched, expected.str());
}

}  // namespace
