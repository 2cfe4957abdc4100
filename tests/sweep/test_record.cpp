// sweep records: deterministic JSONL rendering, resume scanning that
// survives a kill mid-write, and a deterministic shard merge.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "sweep/record.hpp"

namespace {

sweep::Grid small_grid() {
  return sweep::parse_grid(
      "workload constant:1.0\ntasks 64\nh 0.1\nseed 42\nreplicas 3\n"
      "sweep technique SS GSS\nsweep workers 2 4\n");
}

std::string record_of(const sweep::Grid& grid, std::size_t index) {
  const sweep::Cell c = sweep::cell(grid, index);
  const exec::BatchJob job = sweep::batch_job(grid, c);
  const exec::BatchResult result = exec::BatchRunner().run_one(job);
  return sweep::RecordRenderer(grid).render(c, job, result);
}

sweep::RecordKey key(std::size_t cell, const char* backend = "mw") {
  return sweep::RecordKey{cell, backend};
}

TEST(SweepRecord, RenderIsDeterministicAndSelfDescribing) {
  const sweep::Grid grid = small_grid();
  const std::string a = record_of(grid, 2);
  const std::string b = record_of(grid, 2);
  EXPECT_EQ(a, b);  // byte-identical re-render: the merge/resume contract
  EXPECT_EQ(sweep::record_backend(a), "mw");  // resolved vehicle, top-level
  EXPECT_EQ(sweep::record_key(a), key(2));
  EXPECT_NE(a.find("\"of\":4"), std::string::npos) << a;
  EXPECT_NE(a.find("\"backend\":\"mw\""), std::string::npos) << a;
  EXPECT_NE(a.find("\"replicas\":3"), std::string::npos) << a;
  EXPECT_NE(a.find("\"sweep\":{\"technique\":\"GSS\",\"workers\":\"2\"}"), std::string::npos)
      << a;
  // Extended summary statistics are present.
  EXPECT_NE(a.find("\"p5\":"), std::string::npos);
  EXPECT_NE(a.find("\"p95\":"), std::string::npos);
  EXPECT_NE(a.find("\"ci95_lo\":"), std::string::npos);
  EXPECT_NE(a.find("\"ci95_hi\":"), std::string::npos);
}

TEST(SweepRecord, RendererMatchesAFreshRendererAndTheValidationPath) {
  // RecordRenderer builds the experiment echo from the cell and job in
  // hand instead of re-expanding the cell; one renderer reused across
  // the grid must render the bytes of a fresh one per record AND the
  // echo cell_experiment_text builds (what validate_records_for_grid
  // compares resumed records against).
  const sweep::Grid grid = small_grid();
  const sweep::RecordRenderer renderer(grid);
  for (std::size_t index = 0; index < grid.cells(); ++index) {
    const sweep::Cell c = sweep::cell(grid, index);
    const exec::BatchJob job = sweep::batch_job(grid, c);
    const exec::BatchResult result = exec::BatchRunner().run_one(job);
    const std::string line = renderer.render(c, job, result);
    EXPECT_EQ(line, sweep::RecordRenderer(grid).render(c, job, result));
    EXPECT_EQ(sweep::record_experiment(line), sweep::cell_experiment_text(grid, index));
    EXPECT_NO_THROW(sweep::validate_records_for_grid(grid, {line}));
  }
}

TEST(SweepRecord, ExperimentEchoReplaysTheCell) {
  // The escaped `experiment` field must parse back to the exact run:
  // derived seed, stride, replicas and the swept overrides applied.
  const sweep::Grid grid = small_grid();
  const sweep::Cell c = sweep::cell(grid, 3);
  const exec::BatchJob job = sweep::batch_job(grid, c);
  const std::string record = record_of(grid, 3);

  const std::string needle = "\"experiment\":\"";
  const auto start = record.find(needle);
  ASSERT_NE(start, std::string::npos);
  const auto end = record.find('"', start + needle.size());
  std::string text = record.substr(start + needle.size(), end - (start + needle.size()));
  // Unescape the only sequence the serializer produces in this text.
  std::string unescaped;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size() && text[i + 1] == 'n') {
      unescaped += '\n';
      ++i;
    } else {
      unescaped += text[i];
    }
  }
  const sweep::ExperimentSpec replay = sweep::parse_experiment_spec(unescaped);
  EXPECT_EQ(replay.config.seed, job.config.seed);
  EXPECT_EQ(replay.seed_stride, job.seed_stride);
  EXPECT_EQ(replay.replicas, job.replicas);
  EXPECT_EQ(replay.config.technique, c.spec.config.technique);
  EXPECT_EQ(replay.config.workers, c.spec.config.workers);
}

TEST(SweepRecord, ScanCollectsCompleteRecords) {
  const sweep::Grid grid = small_grid();
  std::stringstream file;
  file << record_of(grid, 0) << "\n" << record_of(grid, 2) << "\n";
  const sweep::ScanResult scanned = sweep::scan_records(file);
  ASSERT_EQ(scanned.lines.size(), 2u);
  EXPECT_EQ(sweep::record_key(scanned.lines[0]), key(0));
  EXPECT_EQ(sweep::record_key(scanned.lines[1]), key(2));
  EXPECT_FALSE(scanned.dropped_partial_tail);
}

TEST(SweepRecord, ScanCollapsesIdenticalDuplicatesAndKeysOnTheBackend) {
  // A byte-identical duplicate (a cell recomputed into a journal) is
  // kept once, at its first position; the same cell of another backend
  // -- a merged per-backend file -- is a different record.
  const sweep::Grid grid = small_grid();
  const sweep::Grid hagerup = sweep::parse_grid(
      "workload constant:1.0\ntasks 64\nh 0.1\nseed 42\nreplicas 3\nbackend hagerup\n"
      "sweep technique SS GSS\nsweep workers 2 4\n");
  const std::string r0 = record_of(grid, 0);
  const std::string r1 = record_of(grid, 1);
  const std::string h0 = record_of(hagerup, 0);
  std::stringstream file;
  file << r0 << "\n" << r1 << "\n" << r0 << "\n" << h0 << "\n" << r1 << "\n";
  const sweep::ScanResult scanned = sweep::scan_records(file);
  EXPECT_EQ(scanned.lines, (std::vector<std::string>{r0, r1, h0}));
  EXPECT_EQ(sweep::record_key(h0), key(0, "hagerup"));
}

TEST(SweepRecord, ScanDropsTruncatedFinalLine) {
  // The signature of a kill mid-write: the last record is cut short.
  const sweep::Grid grid = small_grid();
  const std::string full = record_of(grid, 0);
  const std::string partial = record_of(grid, 1).substr(0, 40);
  std::stringstream file;
  file << full << "\n" << partial;  // no trailing newline either
  const sweep::ScanResult scanned = sweep::scan_records(file);
  EXPECT_EQ(scanned.lines, (std::vector<std::string>{full}));
  EXPECT_TRUE(scanned.dropped_partial_tail);
}

TEST(SweepRecord, TruncationAtAnyPointIsNeverACompleteRecord) {
  // Regression: a naive "ends with '}'" check accepts a kill-truncated
  // prefix that happens to stop on an *internal* closing brace (e.g.
  // right after the makespan summary object) -- resume would then keep
  // a corrupt record and never recompute the cell.  Every strict
  // prefix must be rejected.
  const sweep::Grid grid = small_grid();
  const std::string record = record_of(grid, 1);
  ASSERT_EQ(sweep::record_key(record), key(1));
  for (std::size_t len = 0; len < record.size(); ++len) {
    const std::string_view prefix(record.data(), len);
    EXPECT_EQ(sweep::record_key(prefix), std::nullopt)
        << "prefix of length " << len << " accepted: " << prefix;
  }
}

TEST(SweepRecord, ScanRejectsCorruptInterior) {
  const sweep::Grid grid = small_grid();
  std::stringstream file;
  file << "not a record\n" << record_of(grid, 0) << "\n";
  EXPECT_THROW((void)sweep::scan_records(file), std::invalid_argument);
}

TEST(SweepRecord, ScanRejectsConflictingDuplicates) {
  const sweep::Grid grid = small_grid();
  std::string other = record_of(grid, 0);
  other.replace(other.find("\"seed\":"), 8, "\"seed\":9");  // same cell, different payload
  std::stringstream file;
  file << record_of(grid, 0) << "\n" << other << "\n";
  EXPECT_THROW((void)sweep::scan_records(file), std::invalid_argument);
}

TEST(SweepRecord, ScanRejectsRecordsWhoseEchoDoesNotReparse) {
  // A structurally complete record whose experiment echo fails to
  // re-parse is corruption, not a kill signature (a kill truncates, it
  // cannot rewrite a line's middle) -- scan must throw with the line
  // number, never silently skip the record.
  const sweep::Grid grid = small_grid();
  std::string corrupt = record_of(grid, 1);
  const auto echo_key = corrupt.rfind("technique");  // inside the echo
  ASSERT_NE(echo_key, std::string::npos);
  corrupt[echo_key + 2] = 'X';  // "teXhnique": an unknown experiment key
  ASSERT_TRUE(sweep::record_key(corrupt).has_value());  // still structurally complete

  std::stringstream file;
  file << record_of(grid, 0) << "\n" << corrupt << "\n" << record_of(grid, 2) << "\n";
  try {
    (void)sweep::scan_records(file);
    FAIL() << "corrupt echo accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("does not re-parse"), std::string::npos) << e.what();
  }
}

TEST(SweepRecord, CorruptEchoAtTheTailStillThrows) {
  // The partial-tail tolerance is for TRUNCATED lines only: a complete
  // final record with a garbled echo is corruption even at the tail.
  const sweep::Grid grid = small_grid();
  std::string corrupt = record_of(grid, 1);
  const auto echo_key = corrupt.rfind("technique");
  ASSERT_NE(echo_key, std::string::npos);
  corrupt[echo_key + 2] = 'X';
  std::stringstream file;
  file << record_of(grid, 0) << "\n" << corrupt << "\n";
  EXPECT_THROW((void)sweep::scan_records(file), std::invalid_argument);
}

TEST(SweepRecord, MergeIsOrderIndependentAndSorted) {
  const sweep::Grid grid = small_grid();
  std::vector<std::string> records;
  for (std::size_t i = 0; i < grid.cells(); ++i) records.push_back(record_of(grid, i));

  // Shards in arbitrary order, with an overlap (cell 2 in both).
  const std::vector<std::vector<std::string>> ab = {{records[3], records[1]},
                                                    {records[2], records[0], records[3]}};
  const std::vector<std::vector<std::string>> ba = {{records[0], records[2], records[3]},
                                                    {records[1], records[3]}};
  const std::vector<std::string> merged = sweep::merge_records(ab);
  EXPECT_EQ(merged, sweep::merge_records(ba));  // deterministic
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sweep::record_key(merged[i]), key(i));  // sorted by cell
    EXPECT_EQ(merged[i], records[i]);
  }
}

TEST(SweepRecord, ValidateRecordsAcceptsOwnGridAndRejectsForeignOnes) {
  const sweep::Grid grid = small_grid();
  std::vector<std::string> lines = {record_of(grid, 0), record_of(grid, 2)};
  EXPECT_NO_THROW(sweep::validate_records_for_grid(grid, lines));

  // Same shape, different spec (tasks differ): resuming must refuse,
  // not silently keep the stale records and skip their cells.
  const sweep::Grid other = sweep::parse_grid(
      "workload constant:1.0\ntasks 128\nh 0.1\nseed 42\nreplicas 3\n"
      "sweep technique SS GSS\nsweep workers 2 4\n");
  EXPECT_THROW(sweep::validate_records_for_grid(other, lines), std::invalid_argument);

  // A record of a grid with a different cell count, too.
  const sweep::Grid smaller = sweep::parse_grid(
      "workload constant:1.0\ntasks 64\nworkers 2\nh 0.1\nseed 42\nreplicas 3\n"
      "sweep technique SS GSS\n");
  EXPECT_THROW(sweep::validate_records_for_grid(smaller, lines), std::invalid_argument);
}

TEST(SweepRecord, RecordExperimentRoundTripsTheEcho) {
  const sweep::Grid grid = small_grid();
  const std::string record = record_of(grid, 1);
  const std::optional<std::string> echo = sweep::record_experiment(record);
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(*echo, sweep::cell_experiment_text(grid, 1));
}

TEST(SweepRecord, MergeRejectsConflictsAndForeignGrids) {
  const sweep::Grid grid = small_grid();
  const std::string record = record_of(grid, 0);
  std::string conflicting = record;
  conflicting.replace(conflicting.find("\"seed\":"), 8, "\"seed\":9");
  EXPECT_THROW((void)sweep::merge_records({{record}, {conflicting}}), std::invalid_argument);

  // A record from a different grid (different "of") must not merge in.
  const sweep::Grid other = sweep::parse_grid(
      "workload constant:1.0\ntasks 64\nworkers 2\nh 0.1\nseed 42\nreplicas 3\n"
      "sweep technique SS GSS\n");
  EXPECT_THROW((void)sweep::merge_records({{record}, {record_of(other, 1)}}),
               std::invalid_argument);
}

}  // namespace
