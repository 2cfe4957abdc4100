// Sweep spec texts must expand to exactly the grids they stand for:
// the committed Figure 5-8 and adaptive-extension spec pairs
// (bench/specs/*_{original,simulation}.sweep) must sweep paper
// Table III's grid and differ only in the keys that make the two sides
// independent simulators -- otherwise `dls_sweep` would silently run a
// different experiment than the figure it regenerates.  (The Figure
// 3-4 pairs are checked by sweep_test_report.)

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sweep/grid.hpp"

namespace {

sweep::Grid committed_grid(const std::string& name) {
  const std::string path = std::string(DLS_SWEEP_SPEC_DIR) + "/" + name + ".sweep";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return sweep::parse_grid(text.str());
}

/// A cell's experiment with the keys that may differ between the two
/// sides of a pair reset.
std::string scientific_text(sweep::ExperimentSpec spec) {
  spec.config.seed = 0;
  spec.seed_stride = 1;
  spec.backend = "mw";
  spec.config.use_rand48 = false;
  return sweep::serialize_experiment_spec(spec);
}

const std::vector<std::string> kPairs = {"fig5", "fig6", "fig7", "fig8", "adaptive"};

TEST(SpecText, FigurePairsSweepPaperTable3) {
  // Paper Table III: one figure per task count, each over the eight
  // techniques of the BOLD publication and p in {2, 8, 64, 256, 1024},
  // 1000 runs, exp(mu = 1 s), h = 0.5 s.
  std::vector<std::string> techniques;
  for (const dls::Kind kind : dls::bold_publication_kinds()) {
    techniques.push_back(dls::to_string(kind));
  }
  const std::vector<std::pair<std::string, std::size_t>> figures = {
      {"fig5", 1024}, {"fig6", 8192}, {"fig7", 65536}, {"fig8", 524288}};
  for (const auto& [figure, tasks] : figures) {
    for (const std::string side : {"_original", "_simulation"}) {
      SCOPED_TRACE(figure + side);
      const sweep::Grid grid = committed_grid(figure + side);
      ASSERT_EQ(grid.axes.size(), 2u);
      EXPECT_EQ(grid.axes[0].key, "technique");
      EXPECT_EQ(grid.axes[0].values, techniques);
      EXPECT_EQ(grid.axes[1].key, "workers");
      EXPECT_EQ(grid.axes[1].values,
                (std::vector<std::string>{"2", "8", "64", "256", "1024"}));
      const sweep::Cell c = sweep::cell(grid, 0);
      EXPECT_EQ(c.spec.config.tasks, tasks);
      EXPECT_EQ(c.spec.replicas, 1000u);
      EXPECT_DOUBLE_EQ(c.spec.config.params.h, 0.5);
      EXPECT_DOUBLE_EQ(c.spec.config.params.mu, 1.0);
      EXPECT_DOUBLE_EQ(c.spec.config.params.sigma, 1.0);
      EXPECT_DOUBLE_EQ(c.spec.config.workload->mean(), 1.0);
      EXPECT_EQ(c.spec.config.overhead_mode, mw::OverheadMode::kAnalytic);
    }
  }
}

TEST(SpecText, AdaptivePairKeepsTheExtensionGrid) {
  for (const std::string side : {"adaptive_original", "adaptive_simulation"}) {
    SCOPED_TRACE(side);
    const sweep::Grid grid = committed_grid(side);
    ASSERT_EQ(grid.axes.size(), 2u);
    EXPECT_EQ(grid.axes[0].values,
              (std::vector<std::string>{"TAP", "WF", "AWF", "AWF-B", "AWF-C", "AF"}));
    EXPECT_EQ(grid.axes[1].values, (std::vector<std::string>{"2", "8", "64", "256"}));
    const sweep::Cell c = sweep::cell(grid, 0);
    EXPECT_EQ(c.spec.config.tasks, 8192u);
    EXPECT_EQ(c.spec.replicas, 200u);
  }
}

TEST(SpecText, PairsDifferOnlyInSeedSeedStrideBackendAndRand48) {
  for (const std::string& pair : kPairs) {
    SCOPED_TRACE(pair);
    const sweep::Grid original = committed_grid(pair + "_original");
    const sweep::Grid simulation = committed_grid(pair + "_simulation");
    ASSERT_EQ(original.cells(), simulation.cells());
    for (std::size_t i = 0; i < original.cells(); ++i) {
      const sweep::Cell o = sweep::cell(original, i);
      const sweep::Cell s = sweep::cell(simulation, i);
      EXPECT_EQ(o.assignment, s.assignment) << "cell " << i;
      EXPECT_EQ(scientific_text(o.spec), scientific_text(s.spec)) << "cell " << i;
      // The original side: the replicated direct simulator with the
      // BOLD publication's erand48 generator; the sides are seeded
      // independently, as the paper's two simulators were.
      EXPECT_EQ(o.spec.backend, "hagerup");
      EXPECT_TRUE(o.spec.config.use_rand48);
      EXPECT_EQ(o.spec.config.seed, 1000003u);
      EXPECT_EQ(o.spec.seed_stride, 7919u);
      EXPECT_EQ(s.spec.backend, "mw");
      EXPECT_FALSE(s.spec.config.use_rand48);
      EXPECT_EQ(s.spec.config.seed, 2000003u);
      EXPECT_EQ(s.spec.seed_stride, 104729u);
    }
  }
}

}  // namespace
