// The TSS publication's experiments (paper Figures 3-4), run from the
// committed spec pairs under bench/specs as they are: the SS/CSS/GSS/TSS
// grid plus the GSS(k) curve, with the bbn machine model as the original
// side and the mw master-worker simulation as the other.  Every side runs
// in process through SweepRunner; reduce_figure pairs the records.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bbn/machine_model.hpp"
#include "exec/backend.hpp"
#include "hagerup/simulator.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workload/task_times.hpp"

namespace {

using Overrides = std::vector<std::pair<std::string, std::string>>;

/// Committed spec `name` with every line that starts with an override's
/// key replaced by that override's line.
std::string committed_spec(const std::string& name, const Overrides& overrides) {
  const std::string path = std::string(DLS_SWEEP_SPEC_DIR) + "/" + name + ".sweep";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::string text, line;
  while (std::getline(in, line)) {
    for (const auto& [key, replacement] : overrides) {
      if (line.starts_with(key + " ")) line = replacement;
    }
    text += line + "\n";
  }
  return text;
}

std::vector<std::string> run_records(const std::string& spec, unsigned threads) {
  sweep::SweepRunner::Options options;
  options.threads = threads;
  std::ostringstream out;
  (void)sweep::SweepRunner(options).run(sweep::parse_grid(spec), {}, out);
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void expect_rejected(const std::vector<std::string>& original,
                     const std::vector<std::string>& simulation, const std::string& needle) {
  try {
    (void)sweep::reduce_figure({original, simulation});
    ADD_FAILURE() << "accepted; expected an error mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

const std::vector<std::string> kTssWorkers = {"2",  "8",  "16", "24", "32", "40",
                                              "48", "56", "64", "72", "80"};

/// Both pairs of a TSS figure, as reduce_figure takes them.
std::vector<std::vector<std::string>> run_tss_figure(const std::string& figure,
                                                     const std::string& curve_pair,
                                                     unsigned threads) {
  std::vector<std::vector<std::string>> sides;
  for (const std::string& pair : {figure, curve_pair}) {
    for (const std::string side : {"_original", "_simulation"}) {
      sides.push_back(run_records(committed_spec(pair + side, {}), threads));
    }
  }
  return sides;
}

const std::vector<std::vector<std::string>>& fig3_sides() {
  static const auto sides = run_tss_figure("fig3", "fig3_gss80", 4);
  return sides;
}

const sweep::FigureReport& fig3_report() {
  static const sweep::FigureReport report = sweep::reduce_figure(fig3_sides());
  return report;
}

const sweep::FigureCell& fig3_cell(const std::string& curve, std::size_t workers) {
  for (const sweep::FigureCell& c : fig3_report().cells) {
    if (c.curve == curve && c.workers == workers) return c;
  }
  throw std::logic_error("no Figure 3 cell " + curve + " p=" + std::to_string(workers));
}

TEST(TssFigures, SpecsMatchThePaperParameters) {
  struct Figure {
    std::string name;
    std::size_t tasks;
    double task_seconds;
    std::size_t gss_k;
  };
  for (const Figure& f : {Figure{"fig3", 100000, 110e-6, 80}, Figure{"fig4", 10000, 2e-3, 5}}) {
    const std::string curve_pair = f.name + "_gss" + std::to_string(f.gss_k);
    for (const std::string side : {"original", "simulation"}) {
      SCOPED_TRACE(f.name + " " + side);
      const sweep::Grid grid = sweep::parse_grid(committed_spec(f.name + "_" + side, {}));
      const sweep::Grid curve = sweep::parse_grid(committed_spec(curve_pair + "_" + side, {}));
      ASSERT_EQ(grid.axes.size(), 2u);
      EXPECT_EQ(grid.axes[0].values, (std::vector<std::string>{"SS", "CSS", "GSS", "TSS"}));
      EXPECT_EQ(grid.axes[1].values, kTssWorkers);
      ASSERT_EQ(curve.axes.size(), 1u);
      EXPECT_EQ(curve.axes[0].values, kTssWorkers);
      for (const sweep::Cell& c : {sweep::cell(grid, 0), sweep::cell(curve, 0)}) {
        EXPECT_EQ(c.spec.config.tasks, f.tasks);
        EXPECT_DOUBLE_EQ(c.spec.config.workload->mean(), f.task_seconds);
        EXPECT_EQ(c.spec.config.workload->stddev(), 0.0);
        EXPECT_EQ(c.spec.replicas, 1u);
        if (side == "original") {
          EXPECT_EQ(c.spec.backend, "bbn");
        } else {
          // The paper's guessed "typical parameters" of the SimGrid side.
          EXPECT_EQ(c.spec.backend, "mw");
          EXPECT_DOUBLE_EQ(c.spec.config.params.h, 1e-6);
          EXPECT_EQ(c.spec.config.overhead_mode, mw::OverheadMode::kSimulated);
          EXPECT_DOUBLE_EQ(c.spec.config.latency, 2e-6);
          EXPECT_DOUBLE_EQ(c.spec.config.bandwidth, 1e8);
        }
      }
      EXPECT_EQ(sweep::cell(grid, 0).spec.config.params.gss_min_chunk, 1u);
      EXPECT_EQ(sweep::cell(curve, 0).spec.config.technique, dls::Kind::kGSS);
      EXPECT_EQ(sweep::cell(curve, 0).spec.config.params.gss_min_chunk, f.gss_k);
    }
  }
}

TEST(TssFigures, Figure3HasEveryCurveAndPoint) {
  const sweep::FigureReport& report = fig3_report();
  EXPECT_TRUE(report.speedup);
  EXPECT_EQ(report.original_backend, "bbn");
  EXPECT_EQ(report.simulation_backend, "mw");
  EXPECT_EQ(report.curves, (std::vector<std::string>{"SS", "CSS", "GSS", "TSS", "GSS(80)"}));
  EXPECT_EQ(report.workers,
            (std::vector<std::size_t>{2, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80}));
  ASSERT_EQ(report.cells.size(), 5u * 11u);
  for (const sweep::FigureCell& c : report.cells) {
    const double pes = static_cast<double>(c.workers);
    EXPECT_GT(c.original, 0.0) << c.curve << " p=" << c.workers;
    EXPECT_GT(c.simulation, 0.0) << c.curve << " p=" << c.workers;
    EXPECT_LE(c.original, pes + 1e-9) << c.curve << " p=" << c.workers;
    EXPECT_LE(c.simulation, pes + 1e-9) << c.curve << " p=" << c.workers;
  }
}

TEST(TssFigures, Figure3TendencyMatchesButValuesDiffer) {
  // The paper's finding: both sides agree CSS/TSS are near-linear and
  // SS is degraded, but the SS magnitudes differ between the implicit
  // shared-memory original and the explicit master-worker simulation.
  const sweep::FigureCell& ss = fig3_cell("SS", 72);
  const sweep::FigureCell& css = fig3_cell("CSS", 72);
  const sweep::FigureCell& tss = fig3_cell("TSS", 72);
  EXPECT_LT(ss.original, css.original * 0.6);
  EXPECT_LT(ss.simulation, css.simulation * 0.9);
  EXPECT_GT(tss.original, 55.0);
  EXPECT_GT(tss.simulation, 55.0);
  EXPECT_GT(std::abs(ss.original - ss.simulation), 3.0);
}

TEST(TssFigures, Figure3RecordsEqualDirectModelCalls) {
  // The records carry each model's speedup bit for bit: hagerup::run on
  // the BBN machine model (bbn::on_machine + bbn::tzen_ni) on the
  // original side, the mw backend's measure() on the simulation
  // side, with the paper's parameters spelled out by hand.
  const std::shared_ptr<const workload::TaskTimeGenerator> workload = workload::constant(110e-6);
  struct Curve {
    std::string label;
    dls::Kind kind;
    std::size_t gss_min;
  };
  for (const Curve& curve : {Curve{"SS", dls::Kind::kSS, 1}, Curve{"CSS", dls::Kind::kCSS, 1},
                             Curve{"GSS", dls::Kind::kGSS, 1}, Curve{"TSS", dls::Kind::kTSS, 1},
                             Curve{"GSS(80)", dls::Kind::kGSS, 80}}) {
    for (const std::size_t pes : {8u, 72u}) {
      SCOPED_TRACE(curve.label + " p=" + std::to_string(pes));
      hagerup::Config original;
      original.technique = curve.kind;
      original.params.gss_min_chunk = curve.gss_min;
      original.pes = pes;
      original.tasks = 100000;
      original.workload = workload;

      mw::Config simulation;
      simulation.technique = curve.kind;
      simulation.params.gss_min_chunk = curve.gss_min;
      simulation.params.h = 1e-6;
      simulation.workers = pes;
      simulation.tasks = 100000;
      simulation.workload = workload;
      simulation.overhead_mode = mw::OverheadMode::kSimulated;
      simulation.latency = 2e-6;
      simulation.bandwidth = 100e6;

      const sweep::FigureCell& c = fig3_cell(curve.label, pes);
      EXPECT_EQ(c.original, bbn::tzen_ni(hagerup::run(bbn::on_machine(original))).speedup);
      EXPECT_EQ(c.simulation, exec::make_backend("mw")->measure(simulation).speedup);
    }
  }
}

TEST(TssFigures, Figure3TablesAreWellFormed) {
  const support::Table values = sweep::figure_table(fig3_report(), &sweep::FigureCell::original);
  EXPECT_EQ(values.rows(), 11u);
  EXPECT_EQ(values.cols(), 1u + 5u);
  EXPECT_NE(values.to_csv().find("PEs,SS,CSS,GSS,TSS,GSS(80)\n"), std::string::npos);

  const std::string text = sweep::render_figure_report(fig3_report(), /*csv=*/false);
  for (const char* title :
       {"=== speedup, n = 100000 tasks, 1 runs per cell and side ===",
        "the TSS publication's experiment", "(a) values from the original side (bbn):",
        "(b) values from the simulation side (mw):", "(c) discrepancy (simulation - original):",
        "(d) relative discrepancy [%]:", "summary: max |discrepancy|"}) {
    EXPECT_NE(text.find(title), std::string::npos) << title;
  }
  EXPECT_EQ(text.find("Table III"), std::string::npos);
  EXPECT_EQ(text.find("FAC/p=2"), std::string::npos);
}

TEST(TssFigures, Figure3ReportBytesIdenticalAtOneAndFourThreads) {
  const auto serial = run_tss_figure("fig3", "fig3_gss80", 1);
  EXPECT_EQ(serial, fig3_sides());
  EXPECT_EQ(sweep::render_figure_report(sweep::reduce_figure(serial), false),
            sweep::render_figure_report(fig3_report(), false));
}

TEST(TssFigures, Figure4HasTheGss5Curve) {
  const sweep::FigureReport report =
      sweep::reduce_figure(run_tss_figure("fig4", "fig4_gss5", 4));
  EXPECT_EQ(report.tasks, 10000u);
  EXPECT_EQ(report.curves, (std::vector<std::string>{"SS", "CSS", "GSS", "TSS", "GSS(5)"}));
  ASSERT_EQ(report.cells.size(), 5u * 11u);
  for (const sweep::FigureCell& c : report.cells) {
    EXPECT_GT(c.original, 0.0) << c.curve << " p=" << c.workers;
    EXPECT_LE(c.simulation, static_cast<double>(c.workers) + 1e-9) << c.curve;
  }
}

TEST(TssFigures, RejectsSidesThatDifferInGssMin) {
  const std::vector<std::string> gss81 =
      run_records(committed_spec("fig3_gss80_simulation", {{"gss_min", "gss_min 81"}}), 4);
  expect_rejected(fig3_sides()[2], gss81, "'gss_min 80' vs 'gss_min 81'");
}

TEST(TssFigures, RejectsPairsThatDoNotFormOneFigure) {
  const auto& f3 = fig3_sides();
  try {
    (void)sweep::reduce_figure({f3[0], f3[1], f3[0], f3[1]});
    ADD_FAILURE() << "a repeated curve was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pair 2: curve SS is already in an earlier pair"),
              std::string::npos)
        << e.what();
  }
  const auto f4 = run_tss_figure("fig4", "fig4_gss5", 4);
  try {
    (void)sweep::reduce_figure({f3[0], f3[1], f4[2], f4[3]});
    ADD_FAILURE() << "pairs of different task counts were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pair 2: every pair must agree"), std::string::npos)
        << e.what();
  }
}

}  // namespace
