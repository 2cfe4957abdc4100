// End-to-end socket sweep through the real binaries (DLS_SWEEP_BIN /
// DLS_CHECK_BIN): a `dls_sweep serve` coordinator on 127.0.0.1 with
// four `work --connect` worker processes, seeded two-worker chaos
// (one SIGKILL mid-compute, one mid-FETCH cut), compared byte-for-
// byte against both a serial run and a `coordinate` run (whose spawned
// workers speak the same framed protocol over socketpairs and share
// its workdir), with the dls_check records/leases audits shelled out
// for real.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/dist.hpp"
#include "check/net.hpp"
#include "dist/protocol.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

namespace {

constexpr const char* kSpec =
    "workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n"
    "sweep technique SS GSS TSS FAC2\nsweep workers 2 4\n";  // 8 cells

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/dls_e2e_sock_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::system(("rm -rf " + path_).c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string serial_reference() {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(sweep::parse_grid(kSpec), {}, out);
  return out.str();
}

int run_shell(const std::string& script) {
  const int status = std::system(("set -e\n" + script).c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
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

// One shell orchestration: serve on a kernel-picked port (published
// via --port-file), then `workers` connect-mode worker processes, the
// first `chaos` of them seeded to die (worker 0 mid-compute, worker 1
// mid-FETCH).  Waits for everything and propagates the serve exit
// code.
std::string orchestration(const std::string& dir, const std::string& sweep_bin,
                          std::size_t workers, std::size_t chaos) {
  std::ostringstream script;
  script << "cd " << dir << "\n"
         << sweep_bin << " serve grid.sweep --listen 127.0.0.1:0 --port-file port.txt"
         << " --out socket.jsonl --workdir wd_sock --workers " << workers
         << " --token e2e --threads 1 --heartbeat-ms 50 --deadline-ms 2000 --backoff-ms 20"
         << " --quiet & SERVE=$!\n"
         << "for i in $(seq 1 100); do [ -f port.txt ] && break; sleep 0.1; done\n"
         << "PORT=$(cat port.txt)\n";
  for (std::size_t w = 0; w < workers; ++w) {
    script << sweep_bin << " work --connect 127.0.0.1:$PORT --token e2e --dir w" << w
           << " --threads 1 --heartbeat-ms 50";
    // Seeded chaos: victim 0 dies between records, victim 1 dies
    // after the first DATA chunk of its FETCH reply.
    if (chaos > 0 && w == 0) script << " --chaos-after 1 --chaos-mode kill";
    if (chaos > 1 && w == 1) script << " --chaos-after 1 --chaos-mode fetchcut";
    script << " 2>/dev/null &\n";
  }
  script << "wait $SERVE\n";
  return script.str();
}

TEST(E2eSocket, CleanFourWorkerSocketSweepMatchesSerialAndCoordinate) {
  const TempDir dir;
  std::ofstream(dir.path() + "/grid.sweep") << kSpec;

  // Socket run (4 remote workers over TCP)...
  ASSERT_EQ(run_shell(orchestration(dir.path(), DLS_SWEEP_BIN, 4, 0)), 0);
  // ...coordinate run (4 spawned workers on socketpairs)...
  ASSERT_EQ(run_shell("cd " + dir.path() + "\n" + DLS_SWEEP_BIN +
                      " coordinate grid.sweep --out local.jsonl --workdir wd_local"
                      " --workers 4 --threads 1 --quiet"),
            0);
  // ...and the three-way byte identity: serial == coordinate == serve.
  const std::string serial = serial_reference();
  EXPECT_EQ(read_file(dir.path() + "/socket.jsonl"), serial);
  EXPECT_EQ(read_file(dir.path() + "/local.jsonl"), serial);

  // Remote stripes all arrived over FETCH: done events carry detail
  // "fetched".
  std::size_t fetched = 0;
  for (const auto& event : read_events(dir.path() + "/wd_sock/events.jsonl")) {
    if (event.kind == "done" && event.detail == "fetched") ++fetched;
  }
  EXPECT_GE(fetched, 1u);

  // So did the spawned workers' stripes, each after its HELLO.
  const auto local = read_events(dir.path() + "/wd_local/events.jsonl");
  std::size_t fetches = 0;
  std::size_t dones = 0;
  for (const auto& event : local) {
    if (event.kind == "fetch") ++fetches;
    if (event.kind == "done") ++dones;
  }
  EXPECT_GE(dones, 1u);
  EXPECT_EQ(fetches, dones);
  EXPECT_EQ(check::check_hello_before_lease(local), std::nullopt);
  EXPECT_EQ(check::check_fetch_before_done(local), std::nullopt);
}

TEST(E2eSocket, TwoKilledWorkersOfFourStillMatchSerialByteForByte) {
  // The acceptance scenario: 4 socket workers, worker 0 SIGKILLed
  // between records and worker 1 killed mid-FETCH stream.  The sweep
  // must finish through the survivors with byte-identical output.
  const TempDir dir;
  std::ofstream(dir.path() + "/grid.sweep") << kSpec;
  ASSERT_EQ(run_shell(orchestration(dir.path(), DLS_SWEEP_BIN, 4, 2)), 0);
  EXPECT_EQ(read_file(dir.path() + "/socket.jsonl"), serial_reference());

  const auto events = read_events(dir.path() + "/wd_sock/events.jsonl");
  std::size_t dead = 0;
  std::size_t reclaims = 0;
  for (const auto& event : events) {
    if (event.kind == "dead") ++dead;
    if (event.kind == "reclaim") ++reclaims;
  }
  EXPECT_GE(dead, 2u);      // both chaos victims died
  EXPECT_GE(reclaims, 1u);  // at least one held lease was taken back

  // The full invariant suite over the chaos log, in-process.
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
  EXPECT_EQ(check::check_hello_before_lease(events), std::nullopt);
  EXPECT_EQ(check::check_fetch_before_done(events), std::nullopt);
}

TEST(E2eSocket, DlsCheckAuditsPassOnTheSocketArtifacts) {
  // The same audits CI runs, through the real dls_check binary.
  const TempDir dir;
  std::ofstream(dir.path() + "/grid.sweep") << kSpec;
  ASSERT_EQ(run_shell(orchestration(dir.path(), DLS_SWEEP_BIN, 4, 2)), 0);

  EXPECT_EQ(run_shell(std::string(DLS_CHECK_BIN) + " records " + dir.path() +
                      "/socket.jsonl --spec " + dir.path() + "/grid.sweep >/dev/null"),
            0);
  EXPECT_EQ(run_shell(std::string(DLS_CHECK_BIN) + " leases " + dir.path() +
                      "/wd_sock/events.jsonl >/dev/null"),
            0);
}

TEST(E2eSocket, WrongTokenWorkersCannotServeTheSweep) {
  // Auth end to end: a serve coordinator whose only clients present
  // the wrong token must reject them all ("auth" deaths) and fail on
  // the accept grace rather than accept forged work.
  const TempDir dir;
  std::ofstream(dir.path() + "/grid.sweep") << kSpec;
  std::ostringstream script;
  script << "cd " << dir.path() << "\n"
         << DLS_SWEEP_BIN << " serve grid.sweep --listen 127.0.0.1:0 --port-file port.txt"
         << " --out socket.jsonl --workdir wd_sock --workers 2 --token right"
         << " --accept-grace-ms 1500 --heartbeat-ms 50 --quiet & SERVE=$!\n"
         << "for i in $(seq 1 100); do [ -f port.txt ] && break; sleep 0.1; done\n"
         << "PORT=$(cat port.txt)\n"
         << DLS_SWEEP_BIN << " work --connect 127.0.0.1:$PORT --token wrong --dir w0"
         << " --connect-attempts 3 --connect-backoff-ms 20 2>/dev/null &\n"
         << "wait $SERVE\n";
  EXPECT_EQ(run_shell(script.str()), 1);  // failed loudly, no output committed
  EXPECT_FALSE(std::ifstream(dir.path() + "/socket.jsonl").good());

  bool auth_death = false;
  for (const auto& event : read_events(dir.path() + "/wd_sock/events.jsonl")) {
    auth_death |= event.kind == "dead" && event.detail == "auth";
  }
  EXPECT_TRUE(auth_death);
}

}  // namespace
