// Process-level tests of `dls_sweep coordinate` / `serve` / `work`
// (the real binary, via DLS_SWEEP_BIN): a sweep that loses workers
// mid-run -- clean kills, kills mid-RECORD frame, or silent hangs --
// must exit 0 with a merged output byte-identical to a serial run,
// computing no cell twice, and its lease-event log must satisfy the
// exclusivity invariant.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/dist.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "sweep/grid.hpp"
#include "sweep/record.hpp"
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
  // The tentpole acceptance scenario: workers 0 and 1 SIGKILLed after
  // sending a record.  Their leases must be reclaimed and retried, and
  // the merged output must be bitwise identical to the uninterrupted
  // serial run.
  //
  // Every victim must get a cell to compute, or it survives: one whose
  // READY comes after the others took every fresh stripe gets a fully
  // held retry or nothing.  So the coordinator runs in process and
  // spawns its workers through a wrapper that holds the healthy two
  // back until both victims hold a lease, and two-cell stripes leave a
  // cell to compute even in a lease that is the other victim's retry.
  const TempDir dir;
  const std::string go = dir.path() + "/go";
  dist::CoordinatorOptions options;
  options.spec_path = write_spec(dir);
  options.out_path = dir.path() + "/merged.jsonl";
  options.workdir = dir.path() + "/wd";
  options.workers = 4;
  options.stripes = 4;
  options.worker_threads = 1;
  options.backoff_base = std::chrono::milliseconds(10);
  options.chaos = dist::parse_chaos_list("0:1:kill,1:1:kill");
  options.worker_command = {
      "/bin/sh", "-c",
      "case \" $* \" in *' --chaos-after '*) ;; *) until [ -e " + go +
          " ]; do sleep 0.01; done ;; esac; exec " DLS_SWEEP_BIN " \"$@\"",
      "sh"};
  std::size_t leases = 0;
  options.on_event = [&](const dist::LeaseEvent& event) {
    if (event.kind == "lease" && ++leases == 2) std::ofstream{go};
  };
  const dist::CoordinatorReport report = dist::Coordinator(options).run();
  EXPECT_EQ(read_file(options.out_path), serial_reference());
  // Both victims sent their record before dying, and no retry
  // computed it again: every cell was computed exactly once.
  EXPECT_EQ(report.computed, 8u);
  EXPECT_EQ(report.merged_records, 8u);

  const std::vector<dist::LeaseEvent> events = read_events(options.workdir + "/events.jsonl");
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
  //
  // The victim only hangs if it gets a second cell to compute, so (as
  // in the two-victim test above) the healthy worker is held back until
  // the victim holds a lease, and two-cell stripes leave it that cell.
  const TempDir dir;
  const std::string go = dir.path() + "/go";
  dist::CoordinatorOptions options;
  options.spec_path = write_spec(dir);
  options.out_path = dir.path() + "/merged.jsonl";
  options.workdir = dir.path() + "/wd";
  options.workers = 2;
  options.stripes = 4;
  options.worker_threads = 1;
  options.heartbeat_interval = std::chrono::milliseconds(30);
  options.lease_deadline = std::chrono::milliseconds(300);
  options.backoff_base = std::chrono::milliseconds(10);
  options.chaos = dist::parse_chaos_list("1:1:hang");
  options.worker_command = {
      "/bin/sh", "-c",
      "case \" $* \" in *' --chaos-after '*) ;; *) until [ -e " + go +
          " ]; do sleep 0.01; done ;; esac; exec " DLS_SWEEP_BIN " \"$@\"",
      "sh"};
  options.on_event = [&](const dist::LeaseEvent& event) {
    if (event.kind == "lease") std::ofstream{go};
  };
  (void)dist::Coordinator(options).run();
  EXPECT_EQ(read_file(options.out_path), serial_reference());

  bool deadline_reclaim = false;
  for (const dist::LeaseEvent& event : read_events(options.workdir + "/events.jsonl")) {
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

/// The files in `dir`, sorted.
std::vector<std::string> list_dir(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Kill a first coordinator run early (chaos takes out its only worker
/// after 3 records, so the coordinator fails loudly), then re-run on
/// the same workdir with `restart_args`.  Returns the second run's
/// stderr; `journal` receives the journal the first run left.
std::string killed_then_restarted(const TempDir& dir, const std::string& restart_args,
                                  const char* spec_text = kSpec, std::string* journal = nullptr) {
  const std::string spec = write_spec(dir, spec_text);
  const std::string common = "coordinate " + spec + " --out " + dir.path() +
                             "/merged.jsonl --workdir " + dir.path() +
                             "/wd --threads 1 --backoff-ms 10 ";
  std::string err;
  EXPECT_EQ(run_tool(common + "--workers 1 --stripes 4 --chaos 0:3:kill --quiet"), 1);
  if (journal != nullptr) *journal = read_file(dir.path() + "/wd/records.jsonl");
  EXPECT_EQ(run_tool(common + restart_args, &err), 0) << err;
  return err;
}

TEST(CoordinateTool, RestartedCoordinatorAdoptsAndResumesPriorWork) {
  // The restart adopts the stripes the journal holds in full and
  // resumes the rest past the records it holds: the final output is
  // still byte-identical, and no cell is computed twice.
  const TempDir dir;
  const std::string err = killed_then_restarted(dir, "--workers 2 --stripes 4");
  EXPECT_EQ(read_file(dir.path() + "/merged.jsonl"), serial_reference());
  EXPECT_NE(err.find(": 5 cell(s) computed, 8 record(s) merged"), std::string::npos) << err;
  // The appended two-run log must still replay cleanly (seq resets).
  EXPECT_EQ(check::check_lease_exclusivity(read_events(dir.path() + "/wd/events.jsonl")),
            std::nullopt);
  EXPECT_EQ(list_dir(dir.path() + "/wd"),
            (std::vector<std::string>{"events.jsonl", "records.jsonl"}));
}

TEST(CoordinateTool, RestartWithOtherStripesMatchesSerial) {
  // Held cells are derived from the journal under whatever striping the
  // new run uses, so a restart need not repeat the killed run's
  // --stripes.
  const TempDir dir;
  (void)killed_then_restarted(dir, "--workers 2 --stripes 3 --quiet");
  EXPECT_EQ(read_file(dir.path() + "/merged.jsonl"), serial_reference());
  EXPECT_EQ(check::check_lease_exclusivity(read_events(dir.path() + "/wd/events.jsonl")),
            std::nullopt);
  EXPECT_EQ(list_dir(dir.path() + "/wd"),
            (std::vector<std::string>{"events.jsonl", "records.jsonl"}));
}

TEST(CoordinateTool, RestartWithOtherStripesKeepsTheJournaledRecords) {
  // The new striping makes two journaled cells fall past their
  // stripes' held prefixes, so they are computed again.  A wall-clock
  // `runtime` cell does not reproduce its bytes, so the journal must
  // keep each cell's first record: the merge covers the grid once,
  // with every record the killed run received.
  constexpr const char* kWallClockSpec =
      "workload constant:0.00001\ntasks 64\nseed 1\nreplicas 2\nbackend runtime\n"
      "technique SS\nsweep workers 1 2\nsweep h 0 0.5 1 1.5 2\n";  // 10 cells
  const TempDir dir;
  std::string journal;
  (void)killed_then_restarted(dir, "--workers 2 --stripes 3 --quiet", kWallClockSpec, &journal);
  const std::string merged = read_file(dir.path() + "/merged.jsonl");
  std::vector<std::string> lines;
  std::istringstream in(merged);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(check::check_merged_complete(sweep::parse_grid(kWallClockSpec), lines), std::nullopt);
  std::istringstream first(journal);
  std::size_t kept = 0;
  for (std::string line; std::getline(first, line); ++kept) {
    EXPECT_NE(merged.find(line + "\n"), std::string::npos) << line;
  }
  EXPECT_EQ(kept, 3u);
}

TEST(CoordinateTool, RecordLargerThanOneFrameCrossesTheWire) {
  // One profile line makes every worker's speed profile part of the
  // record's experiment echo, so the 200000-worker cell's record
  // outgrows net::kMaxFramePayload and crosses as several RECORDs.
  constexpr const char* kWideSpec =
      "workload exponential:1.0\ntasks 4\nprofile0 0:1e9\nseed 1\nreplicas 1\n"
      "technique SS\nsweep workers 200000 2\n";
  const TempDir dir;
  const std::string spec = write_spec(dir, kWideSpec);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 1 --threads 1 --quiet"),
            0);
  const std::string serial = serial_reference(kWideSpec);
  ASSERT_GT(serial.find('\n'), net::kMaxFramePayload);
  EXPECT_EQ(read_file(out), serial);
}

TEST(ServeTool, KilledRemoteWorkerIsResumedNotRecomputed) {
  // A `work --connect` worker shares no disk with the coordinator.  It
  // is SIGKILLed after sending 3 of its stripe's 8 records; the retry
  // must compute only the other 5, so every cell is computed exactly
  // once across the run.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string sweep_bin = DLS_SWEEP_BIN;
  const std::string script =
      "set -e\ncd " + dir.path() + "\n" + sweep_bin +
      " serve grid.sweep --listen 127.0.0.1:0 --port-file port.txt --out merged.jsonl"
      " --workdir wd --workers 1 --stripes 1 --threads 1 --heartbeat-ms 50 --backoff-ms 10"
      " 2>serve.log & SERVE=$!\n"
      "for i in $(seq 1 100); do [ -f port.txt ] && break; sleep 0.1; done\n"
      "PORT=$(cat port.txt)\n" +
      sweep_bin + " work --connect 127.0.0.1:$PORT --threads 1 --heartbeat-ms 50"
      " --chaos-after 3 --chaos-mode kill 2>/dev/null || true\n" +
      sweep_bin + " work --connect 127.0.0.1:$PORT --threads 1 --heartbeat-ms 50 2>/dev/null\n"
      "wait $SERVE\n";
  const int status = std::system(script.c_str());
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << read_file(dir.path() + "/serve.log");
  EXPECT_EQ(read_file(dir.path() + "/merged.jsonl"), serial_reference());

  const std::string log = read_file(dir.path() + "/serve.log");
  EXPECT_NE(log.find(": 8 cell(s) computed, 8 record(s) merged, 1 reclaim(s)"), std::string::npos)
      << log;
  // The dead worker's 3 records are in the coordinator's journal,
  // followed by the retry's 5 and nothing else: with one stripe, the
  // journal is the serial output itself.  The retry finished the
  // stripe.
  EXPECT_EQ(read_file(dir.path() + "/wd/records.jsonl"), serial_reference());
  std::vector<std::size_t> done_attempts;
  for (const dist::LeaseEvent& event : read_events(dir.path() + "/wd/events.jsonl")) {
    if (event.kind == "done") done_attempts.push_back(event.attempt);
  }
  EXPECT_EQ(done_attempts, std::vector<std::size_t>{1});
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

  // A grid whose SPEC frame no worker could receive: refused before any
  // worker is spawned or any port opened, naming its size and the limit.
  {
    std::string speeds = "1.0";
    for (std::size_t i = 1; i < 1100000; ++i) speeds += ",1.0";
    std::ofstream(dir.path() + "/huge.sweep")
        << "workload constant:1.0\ntasks 4\nworkers 1100000\ntechnique SS\nspeeds " << speeds
        << "\n";
    const std::string size = std::to_string(std::filesystem::file_size(dir.path() + "/huge.sweep"));
    for (std::string mode :
         {"coordinate " + dir.path() + "/huge.sweep",
          "serve " + dir.path() + "/huge.sweep --listen 127.0.0.1:0"}) {
      mode += " --out " + dir.path() + "/huge.jsonl --workdir " + dir.path() + "/wd_huge";
      EXPECT_EQ(run_tool(mode, &err), 2) << mode;
      EXPECT_NE(err.find(size + " bytes"), std::string::npos) << err;
      EXPECT_NE(err.find(std::to_string(net::kMaxFramePayload)), std::string::npos) << err;
    }
    EXPECT_FALSE(std::filesystem::exists(dir.path() + "/wd_huge"));
  }
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

TEST(WorkTool, RejectsASpecFileAndANonSocketStdin) {
  const TempDir dir;
  const std::string spec = write_spec(dir);
  EXPECT_EQ(run_tool("work " + dir.path() + "/nope.sweep </dev/null"), 2);
  // The grid only ever arrives over the wire: no spec positional, and
  // without --connect stdin must be the link.  `--dir` is accepted
  // and ignored.
  std::string err;
  EXPECT_EQ(run_tool("work " + spec + " </dev/null", &err), 2);
  EXPECT_NE(err.find("no spec file"), std::string::npos) << err;
  EXPECT_EQ(run_tool("work </dev/null", &err), 2);
  EXPECT_NE(err.find("not a socket"), std::string::npos) << err;
  EXPECT_EQ(run_tool("work --dir " + dir.path() + " </dev/null", &err), 2);
  EXPECT_NE(err.find("not a socket"), std::string::npos) << err;
}

TEST(WorkTool, ServesLeasesOverStdinAndStreamsTheirRecords) {
  // Drive one worker by hand on a socketpair as its stdin, the way
  // `coordinate` spawns it: HELLO, SPEC, READY, LEASE stripe 0 of 2,
  // its RECORDs and DONE; then stripe 1 with its first cell held;
  // QUIT.  The records must be exactly those of shard 0/2 and of shard
  // 1/2 past its first record, and each DONE must carry their count
  // and digest.
  using namespace std::chrono_literals;
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(ends[1], STDIN_FILENO);
    ::execl(DLS_SWEEP_BIN, DLS_SWEEP_BIN, "work", "--threads", "1", static_cast<char*>(nullptr));
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
  const auto shard = [](std::size_t index) {
    sweep::SweepRunner::Options options;
    options.shard_index = index;
    options.shard_count = 2;
    std::ostringstream out;
    (void)sweep::SweepRunner(options).run(sweep::parse_grid(kSpec), {}, out);
    return out.str();
  };
  // The record bytes of one lease, up to its DONE.
  const auto stream = [&next](dist::DoneMsg& done) {
    std::string records;
    for (;;) {
      const std::string message = next();
      const dist::WorkerMsg msg = dist::parse_worker_msg(message);
      if (const auto* record = std::get_if<dist::RecordMsg>(&msg)) {
        records += record->bytes;
        continue;
      }
      const auto* last = std::get_if<dist::DoneMsg>(&msg);
      EXPECT_NE(last, nullptr) << message;
      if (last != nullptr) done = *last;
      return records;
    }
  };

  EXPECT_TRUE(next().starts_with("HELLO "));
  ASSERT_TRUE(link.send(dist::encode(dist::CoordinatorMsg(dist::SpecMsg{kSpec}))));
  EXPECT_EQ(next(), "READY");

  ASSERT_TRUE(link.send("LEASE 0 2 0 0"));
  dist::DoneMsg done;
  const std::string stripe0 = stream(done);
  EXPECT_EQ(stripe0, shard(0));
  EXPECT_EQ(done.stripe, 0u);
  EXPECT_EQ(done.records, 4u);
  EXPECT_EQ(done.digest, net::fnv1a64(stripe0));

  ASSERT_TRUE(link.send("LEASE 1 2 3 1"));
  const std::string stripe1 = stream(done);
  const std::string full1 = shard(1);
  EXPECT_EQ(stripe1, full1.substr(full1.find('\n') + 1));
  EXPECT_EQ(done.stripe, 1u);
  EXPECT_EQ(done.attempt, 3u);
  EXPECT_EQ(done.records, 3u);
  EXPECT_EQ(done.digest, net::fnv1a64(stripe1));

  ASSERT_TRUE(link.send("QUIT"));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
