// Lease expiry / reclamation edge cases (dist::Coordinator driving the
// real dls_sweep binary as its workers).  Every scenario must converge
// to a merged output byte-identical to an uninterrupted serial run, or
// fail loudly:
//  - a coordinator restarted over a journal whose last record is torn
//    resumes past the complete records;
//  - a coordinator restarted over a journal holding a whole stripe
//    adopts it;
//  - a stripe whose every holder dies exhausts its attempts.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"

namespace {

constexpr const char* kSpec =
    "workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n"
    "sweep technique SS GSS TSS\nsweep workers 2 4\n";  // 6 cells

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/dls_reclaim_XXXXXX";
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

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << text;
}

std::string serial_reference(const sweep::Grid& grid) {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(grid, {}, out);
  return out.str();
}

std::vector<std::string> shard_records(const sweep::Grid& grid, std::size_t index,
                                       std::size_t count) {
  sweep::SweepRunner::Options options;
  options.shard_index = index;
  options.shard_count = count;
  std::ostringstream out;
  (void)sweep::SweepRunner(options).run(grid, {}, out);
  std::vector<std::string> lines;
  std::istringstream is(out.str());
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

dist::CoordinatorOptions base_options(const TempDir& dir) {
  dist::CoordinatorOptions options;
  options.spec_path = dir.path() + "/grid.sweep";
  options.out_path = dir.path() + "/merged.jsonl";
  options.workdir = dir.path() + "/wd";
  options.workers = 1;
  options.stripes = 2;
  options.worker_threads = 1;
  options.heartbeat_interval = std::chrono::milliseconds(50);
  options.lease_deadline = std::chrono::milliseconds(2000);
  options.backoff_base = std::chrono::milliseconds(10);
  options.worker_command = {DLS_SWEEP_BIN};
  write_file(options.spec_path, kSpec);
  ::mkdir(options.workdir.c_str(), 0755);
  return options;
}

std::string journal_path(const dist::CoordinatorOptions& options) {
  return options.workdir + "/records.jsonl";
}

TEST(Reclaim, TruncatedAttemptTailIsResumedNotRecomputed) {
  // A journal a previous coordinator left holding one complete record
  // and half of a second (a death mid-append) must resume past the
  // complete record and drop the torn one -- the merged output stays
  // byte-identical.
  const sweep::Grid grid = sweep::parse_grid(kSpec);
  const TempDir dir;
  dist::CoordinatorOptions options = base_options(dir);

  const std::vector<std::string> stripe0 = shard_records(grid, 0, 2);  // 3 records
  ASSERT_GE(stripe0.size(), 2u);
  write_file(journal_path(options),
             stripe0[0] + "\n" + stripe0[1].substr(0, stripe0[1].size() / 2));

  const dist::CoordinatorReport report = dist::Coordinator(options).run();
  EXPECT_EQ(read_file(options.out_path), serial_reference(grid));
  // One cell of six rode in from the dead attempt.
  EXPECT_EQ(report.computed, grid.cells() - 1);
  EXPECT_EQ(report.adopted, 0u);
}

TEST(Reclaim, PublishedStripeIsAdoptedNeverRecomputed) {
  // A coordinator killed after a stripe's last record reached the
  // journal leaves the whole stripe there; a restart must adopt it,
  // not re-lease the stripe.
  const sweep::Grid grid = sweep::parse_grid(kSpec);
  const TempDir dir;
  dist::CoordinatorOptions options = base_options(dir);

  std::string published;
  for (const std::string& line : shard_records(grid, 0, 2)) published += line + "\n";
  write_file(journal_path(options), published);

  const dist::CoordinatorReport report = dist::Coordinator(options).run();
  EXPECT_EQ(read_file(options.out_path), serial_reference(grid));
  EXPECT_EQ(report.adopted, 1u);
  EXPECT_EQ(report.computed, grid.cells() - 3);  // stripe 0's three cells adopted
}

TEST(Reclaim, ConflictingRetryBytesFailTheMergeLoudly) {
  // If a retry somehow produced DIFFERENT bytes for a cell the dead
  // worker already flushed, the merge must throw, not ship one of the
  // two silently.
  const sweep::Grid grid = sweep::parse_grid(kSpec);
  std::vector<std::string> attempt0 = shard_records(grid, 0, 2);
  std::vector<std::string> attempt1 = attempt0;
  const auto seed = attempt1[0].find("\"seed\":");
  ASSERT_NE(seed, std::string::npos);
  attempt1[0][seed + 8] = attempt1[0][seed + 8] == '1' ? '2' : '1';
  EXPECT_THROW((void)sweep::merge_records({attempt0, attempt1}), std::invalid_argument);
}

TEST(Reclaim, UnpublishableStripeExhaustsRetriesAndFailsLoudly) {
  // A stripe that can never be finished (every worker that leases it
  // dies) must burn its attempts with backoff and then fail the whole
  // run -- not spin forever.
  const TempDir dir;
  dist::CoordinatorOptions options = base_options(dir);
  options.workers = 2;
  options.stripes = 1;
  options.max_attempts = 2;
  options.chaos = {dist::ChaosKill{0, 1, dist::ChaosMode::kill},
                   dist::ChaosKill{1, 1, dist::ChaosMode::kill}};

  try {
    (void)dist::Coordinator(options).run();
    ADD_FAILURE() << "the run succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("giving up"), std::string::npos) << e.what();
  }

  // The events log must record the retry/giveup trail.
  const std::string events = read_file(options.workdir + "/events.jsonl");
  EXPECT_NE(events.find("\"event\":\"retry\""), std::string::npos);
  EXPECT_NE(events.find("\"event\":\"giveup\""), std::string::npos);
}

TEST(Reclaim, EveryWorkerDeadFailsInsteadOfHanging) {
  const TempDir dir;
  dist::CoordinatorOptions options = base_options(dir);
  options.chaos = {dist::ChaosKill{0, 1, dist::ChaosMode::kill}};  // the only worker
  EXPECT_THROW((void)dist::Coordinator(options).run(), std::runtime_error);
}

}  // namespace
