// sweep::Grid: `sweep <key> <v1> <v2> ...` directives expand into the
// cartesian product of experiments, cells are enumerated row-major in
// axis declaration order, and every cell of a real grid gets a
// decorrelated splitmix64-derived base seed.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sweep/grid.hpp"

namespace {

constexpr const char* kGrid =
    "# Table-2-style grid\n"
    "workload  exponential:1.0\n"
    "tasks     512\n"
    "h         0.5\n"
    "seed      42\n"
    "replicas  7\n"
    "sweep technique SS GSS TSS\n"
    "sweep workers   2 4\n";

TEST(SweepGrid, ExpandsCartesianProduct) {
  const sweep::Grid grid = sweep::parse_grid(kGrid);
  ASSERT_EQ(grid.axes.size(), 2u);
  EXPECT_EQ(grid.axes[0].key, "technique");
  EXPECT_EQ(grid.axes[1].key, "workers");
  EXPECT_EQ(grid.cells(), 6u);

  // Row-major: first axis outermost, last axis fastest.
  const dls::Kind kinds[] = {dls::Kind::kSS, dls::Kind::kSS, dls::Kind::kGSS,
                             dls::Kind::kGSS, dls::Kind::kTSS, dls::Kind::kTSS};
  const std::size_t workers[] = {2, 4, 2, 4, 2, 4};
  for (std::size_t i = 0; i < 6; ++i) {
    const sweep::Cell c = sweep::cell(grid, i);
    EXPECT_EQ(c.index, i);
    EXPECT_EQ(c.spec.config.technique, kinds[i]) << "cell " << i;
    EXPECT_EQ(c.spec.config.workers, workers[i]) << "cell " << i;
    EXPECT_EQ(c.spec.replicas, 7u);
    ASSERT_EQ(c.assignment.size(), 2u);
    EXPECT_EQ(c.assignment[0].first, "technique");
    EXPECT_EQ(c.assignment[1].first, "workers");
  }
}

TEST(SweepGrid, SweptKeyOverridesBaseKey) {
  // The base text may fix a key the sweep also varies; the sweep value
  // wins (the experiment parser takes the last assignment).
  const sweep::Grid grid = sweep::parse_grid(
      "technique SS\ntasks 100\nworkers 8\nworkload constant:1\nsweep workers 2 4\n");
  EXPECT_EQ(sweep::cell(grid, 0).spec.config.workers, 2u);
  EXPECT_EQ(sweep::cell(grid, 1).spec.config.workers, 4u);
}

TEST(SweepGrid, CellsGetDecorrelatedDerivedSeeds) {
  const sweep::Grid grid = sweep::parse_grid(kGrid);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < grid.cells(); ++i) {
    const sweep::Cell c = sweep::cell(grid, i);
    const exec::BatchJob job = sweep::batch_job(grid, c);
    // The spec seed is the base; the job seed is the derivation.
    EXPECT_EQ(c.spec.config.seed, 42u);
    EXPECT_EQ(job.config.seed, sweep::derive_cell_seed(42, i));
    seeds.insert(job.config.seed);
  }
  EXPECT_EQ(seeds.size(), grid.cells());  // collision-free
}

TEST(SweepGrid, PlainExperimentKeepsItsSeedVerbatim) {
  // No sweep directive -> one cell, seed untouched, so a record's
  // experiment echo replays its own seeds through `dls_sweep -`.
  const sweep::Grid grid =
      sweep::parse_grid("technique SS\ntasks 100\nworkers 2\nworkload constant:1\nseed 7\n");
  EXPECT_TRUE(grid.axes.empty());
  EXPECT_EQ(grid.cells(), 1u);
  const exec::BatchJob job = sweep::batch_job(grid, sweep::cell(grid, 0));
  EXPECT_EQ(job.config.seed, 7u);
}

TEST(SweepGrid, SeedStrideAndReplicasFlowIntoTheJob) {
  const sweep::Grid grid = sweep::parse_grid(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1\n"
      "replicas 9\nseed_stride 104729\nsweep h 0.1 0.5\n");
  const exec::BatchJob job = sweep::batch_job(grid, sweep::cell(grid, 1));
  EXPECT_EQ(job.replicas, 9u);
  EXPECT_EQ(job.seed_stride, 104729u);
  EXPECT_DOUBLE_EQ(job.config.params.h, 0.5);
}

TEST(SweepGrid, CellTextIsParseable) {
  const sweep::Grid grid = sweep::parse_grid(kGrid);
  const std::string text = sweep::cell_text(grid, 3);
  const sweep::ExperimentSpec spec = sweep::parse_experiment_spec(text);
  EXPECT_EQ(spec.config.technique, dls::Kind::kGSS);
  EXPECT_EQ(spec.config.workers, 4u);
}

TEST(SweepGrid, RejectsBadDirectives) {
  // Axis without values.
  EXPECT_THROW((void)sweep::parse_grid("technique SS\nsweep workers\n"), std::invalid_argument);
  // Duplicate axis.
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 1\nworkers 1\nworkload constant:1\n"
                              "sweep h 1 2\nsweep h 3 4\n"),
      std::invalid_argument);
  // Duplicate value within an axis (a typo'd repeat would silently run
  // duplicate cells and emit duplicate bench entry names).
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 1\nworkload constant:1\n"
                              "sweep workers 64 64 256\n"),
      std::invalid_argument);
  // A typo in a swept key fails at parse_grid time (cell 0 is
  // validated), not mid-sweep.
  try {
    (void)sweep::parse_grid("technique SS\ntasks 1\nworkers 1\nworkload constant:1\n"
                            "sweep worekrs 2 4\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cell 0"), std::string::npos) << e.what();
  }
  // A bad swept value, too.
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 1\nworkers 1\nworkload constant:1\n"
                              "sweep workers 2 banana\n"),
      std::invalid_argument);
  // Missing mandatory base keys surface through cell-0 validation.
  EXPECT_THROW((void)sweep::parse_grid("sweep workers 2 4\n"), std::invalid_argument);
}

TEST(SweepGridBackend, RejectsABackendAxis) {
  // One backend per grid: a `sweep backend` line is an error naming the
  // line and the per-backend run + merge that replaces it, wherever the
  // line sits and however many values it lists.
  const std::string base = "technique SS\ntasks 64\nworkers 2\nworkload constant:1\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {base + "sweep backend mw hagerup\n", "sweep line 5 ('sweep backend mw hagerup')"},
      {base + "sweep h 0.1 0.5\nsweep backend bbn\n", "sweep line 6 ('sweep backend bbn')"},
      {"sweep backend mw hagerup\n" + base + "sweep workers 2 4\n",
       "sweep line 1 ('sweep backend mw hagerup')"},
      {base + "sweep backend mw simgrid\n", "sweep line 5 ('sweep backend mw simgrid')"},
  };
  for (const auto& [text, where] : cases) {
    try {
      (void)sweep::parse_grid(text);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(where), std::string::npos) << what;
      EXPECT_NE(what.find("--backend <name>"), std::string::npos) << what;
      EXPECT_NE(what.find("dls_sweep merge"), std::string::npos) << what;
    }
  }
}

TEST(SweepGridBackend, FixedBackendKeyFlowsIntoEveryJob) {
  const sweep::Grid grid = sweep::parse_grid(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1\nbackend hagerup\n"
      "sweep h 0.1 0.5\n");
  EXPECT_EQ(grid.backend, "hagerup");
  EXPECT_EQ(sweep::batch_job(grid, sweep::cell(grid, 1)).backend, "hagerup");
}

TEST(SweepGridBackend, RejectsUnknownBackendValues) {
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 64\nworkers 2\nworkload constant:1\n"
                              "backend banana\n"),
      std::invalid_argument);
}

TEST(SweepGrid, OutOfRangeCellThrows) {
  const sweep::Grid grid = sweep::parse_grid(kGrid);
  EXPECT_THROW((void)sweep::cell(grid, grid.cells()), std::out_of_range);
}

}  // namespace
