// sweep::SweepRunner: the kill/resume/shard contract.  A sweep that is
// interrupted and resumed, or split across shards and merged, must
// produce records byte-identical to one uninterrupted run.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/record.hpp"
#include "sweep/runner.hpp"

namespace {

sweep::RecordKey key(std::size_t cell, const char* backend = "mw") {
  return sweep::RecordKey{cell, backend};
}

/// With `series`, every record also carries its per-replica values
/// (the `series true` key behind paper Figure 9).
sweep::Grid test_grid(bool series = false) {
  return sweep::parse_grid(
      std::string("workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n") +
      (series ? "series true\n" : "") + "sweep technique SS GSS TSS\nsweep workers 2 4\n");
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// The cell indices of scanned records: the done set of a resume.
std::set<std::size_t> cells_of(const sweep::ScanResult& scanned) {
  std::set<std::size_t> cells;
  for (const std::string& line : scanned.lines) cells.insert(sweep::record_key(line)->cell);
  return cells;
}

TEST(SweepRunner, StreamsOneRecordPerCell) {
  const sweep::Grid grid = test_grid();
  std::ostringstream out;
  const std::size_t computed = sweep::SweepRunner().run(grid, {}, out);
  EXPECT_EQ(computed, 6u);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(sweep::record_key(lines[i]), key(i));
}

TEST(SweepRunner, InterruptedThenResumedMatchesUninterrupted) {
  for (const bool series : {false, true}) {
    SCOPED_TRACE(series ? "series records" : "plain records");
    const sweep::Grid grid = test_grid(series);
    std::ostringstream uninterrupted;
    (void)sweep::SweepRunner().run(grid, {}, uninterrupted);

    // "Kill" the sweep after 2 cells (the deterministic stand-in for a
    // mid-sweep crash), then resume from what the output file holds.
    sweep::SweepRunner::Options first_options;
    first_options.max_cells = 2;
    std::ostringstream first;
    EXPECT_EQ(sweep::SweepRunner(first_options).run(grid, {}, first), 2u);

    std::istringstream scan_input(first.str());
    const sweep::ScanResult scanned = sweep::scan_records(scan_input);
    EXPECT_EQ(cells_of(scanned), (std::set<std::size_t>{0, 1}));
    EXPECT_NO_THROW(sweep::validate_records_for_grid(grid, scanned.lines));

    std::ostringstream resumed;
    for (const std::string& line : scanned.lines) resumed << line << '\n';
    EXPECT_EQ(sweep::SweepRunner().run(grid, cells_of(scanned), resumed), 4u);

    EXPECT_EQ(resumed.str(), uninterrupted.str());  // byte-identical
    EXPECT_EQ(sweep::record_series(lines_of(resumed.str()).back()).has_value(), series);
  }
}

TEST(SweepRunner, ResumeAfterTruncatedTailRecomputesOnlyThatCell) {
  for (const bool series : {false, true}) {
    SCOPED_TRACE(series ? "series records" : "plain records");
    const sweep::Grid grid = test_grid(series);
    std::ostringstream uninterrupted;
    (void)sweep::SweepRunner().run(grid, {}, uninterrupted);
    const std::vector<std::string> full = lines_of(uninterrupted.str());

    // A killed process left 2 complete records and half of a third.
    std::stringstream damaged;
    damaged << full[0] << '\n' << full[1] << '\n' << full[2].substr(0, full[2].size() / 2);
    const sweep::ScanResult scanned = sweep::scan_records(damaged);
    EXPECT_TRUE(scanned.dropped_partial_tail);
    EXPECT_EQ(cells_of(scanned), (std::set<std::size_t>{0, 1}));

    std::ostringstream resumed;
    for (const std::string& line : scanned.lines) resumed << line << '\n';
    EXPECT_EQ(sweep::SweepRunner().run(grid, cells_of(scanned), resumed), 4u);
    EXPECT_EQ(resumed.str(), uninterrupted.str());
  }
}

TEST(SweepRunner, ShardsPartitionTheGridAndMergeToTheFullSweep) {
  for (const bool series : {false, true}) {
    SCOPED_TRACE(series ? "series records" : "plain records");
    const sweep::Grid grid = test_grid(series);
    std::ostringstream uninterrupted;
    (void)sweep::SweepRunner().run(grid, {}, uninterrupted);

    std::vector<std::vector<std::string>> shards;
    std::size_t total = 0;
    for (std::size_t s = 0; s < 3; ++s) {
      sweep::SweepRunner::Options options;
      options.shard_index = s;
      options.shard_count = 3;
      std::ostringstream out;
      total += sweep::SweepRunner(options).run(grid, {}, out);
      shards.push_back(lines_of(out.str()));
    }
    EXPECT_EQ(total, grid.cells());  // a partition: no cell twice, none missing

    const std::vector<std::string> merged = sweep::merge_records(shards);
    std::string merged_text;
    for (const std::string& line : merged) merged_text += line + '\n';
    EXPECT_EQ(merged_text, uninterrupted.str());  // byte-identical modulo order
  }
}

TEST(SweepRunner, RecordsAreIndependentOfThreadCount) {
  const sweep::Grid grid = test_grid();
  auto run_with = [&](unsigned threads) {
    sweep::SweepRunner::Options options;
    options.threads = threads;
    std::ostringstream out;
    (void)sweep::SweepRunner(options).run(grid, {}, out);
    return out.str();
  };
  EXPECT_EQ(run_with(1), run_with(4));
}

TEST(SweepRunner, ObserverSeesSkipsAndCompletions) {
  const sweep::Grid grid = test_grid();
  std::size_t skipped = 0, completed = 0;
  std::ostringstream out;
  (void)sweep::SweepRunner().run(grid, {1, 4}, out,
                                 [&](const sweep::SweepRunner::CellEvent& event) {
                                   (event.skipped ? skipped : completed) += 1;
                                   EXPECT_EQ(event.cells_total, 6u);
                                 });
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(completed, 4u);
}

TEST(SweepRunner, MaxCellsTruncationResumesAtTheFirstUncomputedCell) {
  // The max_cells x shard_index x resume interplay: a shard truncated
  // by max_cells must, on resume, *continue* at its first uncomputed
  // cell -- skipped already-done cells must not be counted against the
  // budget (or the shard would recompute nothing and never finish).
  const sweep::Grid grid = test_grid();  // 6 cells
  sweep::SweepRunner::Options shard_options;
  shard_options.shard_index = 0;
  shard_options.shard_count = 2;  // owns cells 0, 2, 4

  std::ostringstream full;
  EXPECT_EQ(sweep::SweepRunner(shard_options).run(grid, {}, full), 3u);

  // Three truncated passes of max_cells = 1 must walk 0 -> 2 -> 4.
  sweep::SweepRunner::Options truncated = shard_options;
  truncated.max_cells = 1;
  std::ostringstream out;
  std::set<std::size_t> done;
  for (const std::size_t expected_cell : {0u, 2u, 4u}) {
    std::vector<std::size_t> computed_cells;
    const std::size_t computed = sweep::SweepRunner(truncated).run(
        grid, done, out, [&](const sweep::SweepRunner::CellEvent& event) {
          if (!event.skipped) computed_cells.push_back(event.cell);
        });
    EXPECT_EQ(computed, 1u);
    ASSERT_EQ(computed_cells.size(), 1u);
    EXPECT_EQ(computed_cells.front(), expected_cell);
    std::istringstream scan_input(out.str());
    done = cells_of(sweep::scan_records(scan_input));
  }
  EXPECT_EQ(done.size(), 3u);
  // A fourth truncated pass has nothing left to compute.
  EXPECT_EQ(sweep::SweepRunner(truncated).run(grid, done, out), 0u);
  EXPECT_EQ(out.str(), full.str());  // byte-identical to the untruncated shard
}

TEST(SweepRunner, OwnedCellsCountsTheShardsShare) {
  const sweep::Grid grid = test_grid();  // 6 cells
  sweep::SweepRunner::Options options;
  options.shard_count = 4;
  options.shard_index = 1;  // owns cells 1, 5
  EXPECT_EQ(sweep::SweepRunner(options).owned_cells(grid), 2u);
  options.shard_index = 3;  // owns cell 3
  EXPECT_EQ(sweep::SweepRunner(options).owned_cells(grid), 1u);
  EXPECT_EQ(sweep::SweepRunner().owned_cells(grid), 6u);
}

TEST(SweepRunner, WriteFailureIsAnErrorNotASilentTruncation) {
  // A full disk must not let the sweep report success: the first
  // failed record write throws instead of counting the cell computed.
  const sweep::Grid grid = test_grid();
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  EXPECT_THROW((void)sweep::SweepRunner().run(grid, {}, out), std::runtime_error);
}

TEST(SweepRunner, RejectsBadShardOptions) {
  sweep::SweepRunner::Options options;
  options.shard_count = 0;
  EXPECT_THROW(sweep::SweepRunner{options}, std::invalid_argument);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW(sweep::SweepRunner{options}, std::invalid_argument);
}

}  // namespace
