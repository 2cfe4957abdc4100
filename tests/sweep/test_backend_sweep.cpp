// Cross-backend grids (the paper's execution-vehicle dimension as a
// sweep axis).  The contracts under test:
//   * the mw slice of a `sweep backend mw hagerup` grid is BITWISE
//     identical to the same spec run without the backend axis;
//   * hagerup cells really run the hagerup simulator (replica-exact),
//     and on comparable cells the two vehicles issue the bitwise-same
//     chunk sequences check::cross_backend demands;
//   * cross-backend sweeps resume and shard-merge byte-identically.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "hagerup/simulator.hpp"
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

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string run_grid(const sweep::Grid& grid, const std::set<sweep::RecordKey>& done = {}) {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(grid, done, out);
  return out.str();
}

TEST(BackendSweep, MwSliceIsBitwiseIdenticalToABackendLessRun) {
  const sweep::Grid with_axis =
      sweep::parse_grid(std::string(kBase) + "sweep backend mw hagerup\n");
  const sweep::Grid without_axis = sweep::parse_grid(kBase);
  ASSERT_EQ(with_axis.cells(), 6u);
  ASSERT_EQ(with_axis.science_cells(), 3u);

  const std::vector<std::string> cross = lines_of(run_grid(with_axis));
  const std::vector<std::string> plain = lines_of(run_grid(without_axis));
  ASSERT_EQ(cross.size(), 6u);
  ASSERT_EQ(plain.size(), 3u);

  std::vector<std::string> mw_slice;
  for (const std::string& line : cross) {
    ASSERT_TRUE(sweep::record_backend(line).has_value());
    if (sweep::record_backend(line) == "mw") mw_slice.push_back(line);
  }
  EXPECT_EQ(mw_slice, plain);  // bytewise, including "cell"/"of"/seeds
}

TEST(BackendSweep, HagerupCellsAreReplicaExactHagerupRuns) {
  const sweep::Grid grid = sweep::parse_grid(std::string(kBase) + "sweep backend mw hagerup\n");
  // Cell (science 1, hagerup) = full index 2 (backend axis innermost,
  // "hagerup" < "mw").
  const sweep::Cell c = sweep::cell(grid, 2);
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
  const sweep::Grid grid = sweep::parse_grid(std::string(kBase) + "sweep backend mw hagerup\n");
  for (std::size_t science = 0; science < grid.science_cells(); ++science) {
    const exec::BatchJob job = sweep::batch_job(grid, sweep::cell(grid, 2 * science + 1));
    ASSERT_EQ(job.backend, "mw");
    const exec::BackendRun mw_run = exec::make_backend("mw")->run(job.config);
    const exec::BackendRun hagerup_run = exec::make_backend("hagerup")->run(job.config);
    ASSERT_EQ(mw_run.chunk_log.size(), hagerup_run.chunk_log.size()) << "cell " << science;
    for (std::size_t i = 0; i < mw_run.chunk_log.size(); ++i) {
      ASSERT_EQ(mw_run.chunk_log[i].first, hagerup_run.chunk_log[i].first);
      ASSERT_EQ(mw_run.chunk_log[i].size, hagerup_run.chunk_log[i].size);
    }
  }
}

TEST(BackendSweep, ResumesPerBackendRecord) {
  // A done set naming only one vehicle of a cell must skip exactly that
  // record; the other vehicle still computes.
  const sweep::Grid grid = sweep::parse_grid(std::string(kBase) + "sweep backend mw hagerup\n");
  const std::string full = run_grid(grid);

  const std::set<sweep::RecordKey> done = {sweep::RecordKey{0, "hagerup"},
                                           sweep::RecordKey{2, "mw"}};
  std::ostringstream resumed;
  std::size_t skipped = 0;
  const std::size_t computed = sweep::SweepRunner().run(
      grid, done, resumed, [&](const sweep::SweepRunner::CellEvent& event) {
        if (event.skipped) ++skipped;
      });
  EXPECT_EQ(computed, 4u);
  EXPECT_EQ(skipped, 2u);

  // Completing the file (prepending the done records in canonical
  // order) reproduces the uninterrupted bytes.
  const std::vector<std::string> all = lines_of(full);
  const std::vector<std::string> rest = lines_of(resumed.str());
  ASSERT_EQ(rest.size(), 4u);
  std::string stitched = all[0] + '\n';  // (0, hagerup) was already done
  for (const std::string& line : rest) stitched += line + '\n';
  stitched += all[5] + '\n';  // (2, mw) was already done
  const std::vector<std::string> merged =
      sweep::merge_records({lines_of(stitched)});
  std::string canonical;
  for (const std::string& line : merged) canonical += line + '\n';
  EXPECT_EQ(canonical, full);
}

TEST(BackendSweep, ShardsMergeByteIdenticallyAcrossBackends) {
  const sweep::Grid grid = sweep::parse_grid(std::string(kBase) + "sweep backend mw hagerup\n");
  const std::string full = run_grid(grid);

  std::vector<std::vector<std::string>> shards;
  for (std::size_t s = 0; s < 2; ++s) {
    sweep::SweepRunner::Options options;
    options.shard_index = s;
    options.shard_count = 2;
    std::ostringstream out;
    (void)sweep::SweepRunner(options).run(grid, {}, out);
    shards.push_back(lines_of(out.str()));
    // Diagonal sharding: even with shard_count == backend_count, each
    // shard must see BOTH vehicles (a plain index % shard_count would
    // hand shard 0 all hagerup cells and shard 1 all mw cells).
    std::set<std::string> backends_seen;
    for (const std::string& line : shards.back()) {
      backends_seen.insert(*sweep::record_backend(line));
    }
    EXPECT_EQ(backends_seen, (std::set<std::string>{"hagerup", "mw"})) << "shard " << s;
  }
  const std::vector<std::string> merged = sweep::merge_records(shards);
  std::string merged_text;
  for (const std::string& line : merged) merged_text += line + '\n';
  EXPECT_EQ(merged_text, full);
}

TEST(BackendSweep, ValidateRejectsRecordsOfAForeignBackend) {
  const sweep::Grid grid = sweep::parse_grid(std::string(kBase) + "sweep backend mw hagerup\n");
  const std::vector<std::string> lines = lines_of(run_grid(grid));
  EXPECT_NO_THROW(sweep::validate_records_for_grid(grid, lines));

  // The same records do not validate against the backend-less grid:
  // its resolved backend is mw only.
  const sweep::Grid plain = sweep::parse_grid(kBase);
  EXPECT_THROW(sweep::validate_records_for_grid(plain, lines), std::invalid_argument);
}

}  // namespace
