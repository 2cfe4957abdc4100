// Cross-backend comparisons (the paper's execution-vehicle dimension):
// a grid runs on one backend, and the vehicles are compared by running
// the spec once per backend and merging the outputs.  The contracts
// under test:
//   * the merged per-backend runs reproduce, byte for byte, the output
//     a `sweep backend mw hagerup` axis produced before the axis was
//     removed (a digest recorded from that implementation);
//   * every backend runs a cell on the same derived seed;
//   * hagerup cells really run the hagerup simulator (replica-exact),
//     and on comparable cells the two vehicles issue the bitwise-same
//     chunk sequences check::cross_backend demands;
//   * per-backend runs resume and shard-merge byte-identically.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "hagerup/simulator.hpp"
#include "net/frame.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"

namespace {

constexpr const char* kBase =
    "workload exponential:1.0\n"
    "tasks 256\n"
    "workers 4\n"
    "h 0.5\n"
    "latency 0\n"
    "bandwidth inf\n"
    "seed 42\n"
    "replicas 4\n"
    "sweep technique SS GSS TSS\n";

/// FNV-1a 64 of the 6-record output of kBase plus `sweep backend mw
/// hagerup`, as the backend axis wrote it (cells interleaved hagerup,
/// mw per technique).  A change that moves any record byte of either
/// backend, or the merge order, fails the pin.
constexpr std::uint64_t kAxisOutputDigest = 0xb68c2af9fb9182f4ull;

sweep::Grid grid_on(const std::string& backend) {
  return sweep::parse_grid(std::string(kBase) + "backend " + backend + "\n");
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string text_of(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

std::string run_grid(const sweep::Grid& grid, const std::set<sweep::RecordKey>& done = {}) {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(grid, done, out);
  return out.str();
}

TEST(BackendSweep, MergedPerBackendRunsReproduceTheAxisOutput) {
  const std::vector<std::string> mw = lines_of(run_grid(grid_on("mw")));
  const std::vector<std::string> hagerup = lines_of(run_grid(grid_on("hagerup")));
  ASSERT_EQ(mw.size(), 3u);
  ASSERT_EQ(hagerup.size(), 3u);

  const std::string merged = text_of(sweep::merge_records({mw, hagerup}));
  EXPECT_EQ(net::fnv1a64(merged), kAxisOutputDigest) << merged;
  // The merge sorts on (cell, backend): argument order does not matter.
  EXPECT_EQ(text_of(sweep::merge_records({hagerup, mw})), merged);
}

TEST(BackendSweep, EveryBackendRunsACellOnTheSameSeed) {
  const sweep::Grid mw = grid_on("mw");
  const sweep::Grid hagerup = grid_on("hagerup");
  const sweep::Grid plain = sweep::parse_grid(kBase);
  ASSERT_EQ(mw.cells(), hagerup.cells());
  for (std::size_t index = 0; index < mw.cells(); ++index) {
    const exec::BatchJob mw_job = sweep::batch_job(mw, sweep::cell(mw, index));
    const exec::BatchJob hagerup_job = sweep::batch_job(hagerup, sweep::cell(hagerup, index));
    EXPECT_EQ(mw_job.backend, "mw");
    EXPECT_EQ(hagerup_job.backend, "hagerup");
    EXPECT_EQ(hagerup_job.config.seed, mw_job.config.seed) << "cell " << index;
    EXPECT_EQ(mw_job.config.seed, sweep::derive_cell_seed(42, index));
  }
  // The default backend is mw, so an explicit `backend mw` changes no byte.
  EXPECT_EQ(run_grid(mw), run_grid(plain));
}

TEST(BackendSweep, HagerupCellsAreReplicaExactHagerupRuns) {
  const sweep::Grid grid = grid_on("hagerup");
  const sweep::Cell c = sweep::cell(grid, 1);
  ASSERT_EQ(c.spec.backend, "hagerup");
  exec::BatchJob job = sweep::batch_job(grid, c);
  job.keep_values = true;

  const exec::BatchResult batched = exec::BatchRunner().run_one(job);
  ASSERT_EQ(batched.makespan_values.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    hagerup::Config cfg;
    cfg.technique = job.config.technique;
    cfg.params = job.config.params;
    cfg.pes = job.config.workers;
    cfg.tasks = job.config.tasks;
    cfg.workload = job.config.workload;
    cfg.seed = job.config.seed + job.seed_stride * r;
    cfg.use_rand48 = job.config.use_rand48;
    cfg.charge_overhead_inline = false;
    EXPECT_DOUBLE_EQ(batched.makespan_values[r], hagerup::run(cfg).makespan) << "replica " << r;
  }
}

TEST(BackendSweep, ComparableCellsIssueBitwiseIdenticalChunkSequences) {
  // The same conformance check::cross_backend enforces, driven straight
  // off the grid's cells: null network + analytic overhead +
  // homogeneous + non-adaptive techniques -> identical decisions.
  const sweep::Grid grid = grid_on("mw");
  for (std::size_t index = 0; index < grid.cells(); ++index) {
    const exec::BatchJob job = sweep::batch_job(grid, sweep::cell(grid, index));
    const exec::BackendRun mw_run = exec::make_backend("mw")->run(job.config);
    const exec::BackendRun hagerup_run = exec::make_backend("hagerup")->run(job.config);
    ASSERT_EQ(mw_run.chunk_log.size(), hagerup_run.chunk_log.size()) << "cell " << index;
    for (std::size_t i = 0; i < mw_run.chunk_log.size(); ++i) {
      ASSERT_EQ(mw_run.chunk_log[i].first, hagerup_run.chunk_log[i].first);
      ASSERT_EQ(mw_run.chunk_log[i].size, hagerup_run.chunk_log[i].size);
    }
  }
}

TEST(BackendSweep, ResumeSkipsOnlyTheGridsOwnBackend) {
  // A done set naming cells of both vehicles: the hagerup run skips its
  // own record only; the mw key is another run's business.
  const sweep::Grid grid = grid_on("hagerup");
  const std::vector<std::string> full = lines_of(run_grid(grid));
  ASSERT_EQ(full.size(), 3u);

  const std::set<sweep::RecordKey> done = {sweep::RecordKey{0, "hagerup"},
                                           sweep::RecordKey{2, "mw"}};
  std::ostringstream resumed;
  std::size_t skipped = 0;
  const std::size_t computed = sweep::SweepRunner().run(
      grid, done, resumed, [&](const sweep::SweepRunner::CellEvent& event) {
        if (event.skipped) ++skipped;
      });
  EXPECT_EQ(computed, 2u);
  EXPECT_EQ(skipped, 1u);

  // The done record plus the resumed ones reproduce the uninterrupted bytes.
  std::vector<std::string> stitched = lines_of(resumed.str());
  stitched.push_back(full[0]);
  EXPECT_EQ(sweep::merge_records({stitched}), full);
}

TEST(BackendSweep, ShardsOfEveryBackendMergeToTheAxisOutput) {
  std::vector<std::vector<std::string>> shards;
  for (const char* backend : {"mw", "hagerup"}) {
    const sweep::Grid grid = grid_on(backend);
    for (std::size_t s = 0; s < 2; ++s) {
      sweep::SweepRunner::Options options;
      options.shard_index = s;
      options.shard_count = 2;
      std::ostringstream out;
      (void)sweep::SweepRunner(options).run(grid, {}, out);
      shards.push_back(lines_of(out.str()));
      for (const std::string& line : shards.back()) {
        EXPECT_EQ(sweep::record_key(line)->cell % 2, s) << backend << " shard " << s;
      }
    }
  }
  EXPECT_EQ(net::fnv1a64(text_of(sweep::merge_records(shards))), kAxisOutputDigest);
}

TEST(BackendSweep, ValidateRejectsRecordsOfAForeignBackend) {
  const sweep::Grid hagerup = grid_on("hagerup");
  const std::vector<std::string> lines = lines_of(run_grid(hagerup));
  EXPECT_NO_THROW(sweep::validate_records_for_grid(hagerup, lines));

  // The same records do not validate against the mw run of the spec.
  EXPECT_THROW(sweep::validate_records_for_grid(grid_on("mw"), lines), std::invalid_argument);
}

}  // namespace
