// The figure reducer behind `dls_sweep report` (sweep/report.hpp), on
// reduced copies of the committed Figure 5 and ablation spec pairs:
// n = 256, PEs 2 4, SS FAC2 BOLD (SS FAC2 for the ablations), 12
// replicas.  Both sides run in process through SweepRunner;
// reduce_figure pairs their records by cell.  Figure 9's series view
// runs fig9.sweep at 20 replicas against its Figure 8 cell.  The
// Figure 3-4 pairs are covered in tests/repro/test_tss_experiment.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/batch.hpp"
#include "stats/summary.hpp"
#include "sweep/grid.hpp"
#include "sweep/record.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "support/table.hpp"

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

/// The reduced grid of one side of a committed pair.
std::string reduced(const std::string& name, const std::string& techniques = "SS FAC2 BOLD",
                    const std::string& replicas = "12") {
  return committed_spec(name, {{"tasks", "tasks 256"},
                               {"replicas", "replicas " + replicas},
                               {"sweep technique", "sweep technique " + techniques},
                               {"sweep workers", "sweep workers 2 4"}});
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

struct Sides {
  std::vector<std::string> original;
  std::vector<std::string> simulation;
};

Sides run_fig5(unsigned threads) {
  return {run_records(reduced("fig5_original"), threads),
          run_records(reduced("fig5_simulation"), threads)};
}

const Sides& fig5_records() {
  static const Sides sides = run_fig5(4);
  return sides;
}

sweep::FigureReport fig5_report() {
  return sweep::reduce_figure({fig5_records().original, fig5_records().simulation});
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

TEST(FigureReport, ProducesCompleteCellGrid) {
  const sweep::FigureReport report = fig5_report();
  EXPECT_EQ(report.tasks, 256u);
  EXPECT_EQ(report.replicas, 12u);
  EXPECT_EQ(report.original_backend, "hagerup");
  EXPECT_EQ(report.simulation_backend, "mw");
  EXPECT_EQ(report.curves, (std::vector<std::string>{"SS", "FAC2", "BOLD"}));
  EXPECT_FALSE(report.speedup);
  EXPECT_EQ(report.workers, (std::vector<std::size_t>{2, 4}));
  ASSERT_EQ(report.cells.size(), 3u * 2u);
  for (const sweep::FigureCell& c : report.cells) {
    EXPECT_GT(c.original, 0.0);
    EXPECT_GT(c.simulation, 0.0);
    EXPECT_TRUE(std::isfinite(c.relative_percent));
  }
}

TEST(FigureReport, TwoSidesAgreeWithinReason) {
  // The whole point of the paper: the master-worker simulation must
  // land near the replicated original simulator.  With only 12 runs we
  // allow a loose 35% band (the paper reports <= 15% at 1000 runs).
  for (const sweep::FigureCell& c : fig5_report().cells) {
    EXPECT_LT(std::abs(c.relative_percent), 35.0)
        << dls::to_string(c.technique) << " p=" << c.workers << " orig=" << c.original
        << " sim=" << c.simulation;
  }
}

TEST(FigureReport, SsWastedTimeScalesWithTasksOverPes) {
  // SS's average wasted time is dominated by h*n/p on both sides.
  for (const sweep::FigureCell& c : fig5_report().cells) {
    if (c.technique != dls::Kind::kSS) continue;
    const double expected = 0.5 * 256.0 / static_cast<double>(c.workers);
    EXPECT_NEAR(c.original, expected, expected * 0.25) << "p=" << c.workers;
    EXPECT_NEAR(c.simulation, expected, expected * 0.25) << "p=" << c.workers;
  }
}

TEST(FigureReport, TablesAreWellFormed) {
  const sweep::FigureReport report = fig5_report();
  const support::Table values = sweep::figure_table(report, &sweep::FigureCell::original);
  EXPECT_EQ(values.rows(), 2u);
  EXPECT_EQ(values.cols(), 3u + 1u);
  const support::Table rel = sweep::figure_table(report, &sweep::FigureCell::relative_percent);
  EXPECT_EQ(rel.rows(), 2u);
  EXPECT_NE(values.to_csv().find("PEs,SS,FAC2,BOLD"), std::string::npos);

  const std::string text = sweep::render_figure_report(report, /*csv=*/false);
  for (const char* title : {"paper Table III", "(a) values from the original side (hagerup)",
                            "(b) values from the simulation side (mw)", "(c) discrepancy",
                            "(d) relative discrepancy", "summary: max |discrepancy|"}) {
    EXPECT_NE(text.find(title), std::string::npos) << title;
  }
  EXPECT_NE(text.find("| 256 "), std::string::npos);  // Table III row: n, PEs, runs
  EXPECT_NE(text.find("2; 4"), std::string::npos);
  EXPECT_NE(sweep::render_figure_report(report, /*csv=*/true).find("PEs,SS,FAC2,BOLD\n"),
            std::string::npos);
}

TEST(FigureReport, ReportBytesIdenticalAtOneAndFourThreads) {
  const Sides serial = run_fig5(1);
  EXPECT_EQ(serial.original, fig5_records().original);
  EXPECT_EQ(serial.simulation, fig5_records().simulation);
  EXPECT_EQ(sweep::render_figure_report(
                sweep::reduce_figure({serial.original, serial.simulation}), false),
            sweep::render_figure_report(fig5_report(), false));
}

TEST(FigureReport, PairsRecordsByCellNotByFileOrder) {
  std::vector<std::string> shuffled = fig5_records().simulation;
  std::swap(shuffled.front(), shuffled.back());
  EXPECT_EQ(sweep::render_figure_report(
                sweep::reduce_figure({fig5_records().original, shuffled}), false),
            sweep::render_figure_report(fig5_report(), false));
}

TEST(FigureReport, RejectsAMissingPartnerCell) {
  std::vector<std::string> simulation = fig5_records().simulation;
  simulation.erase(simulation.begin() + 3);
  expect_rejected(fig5_records().original, simulation, "cell 3 of 6: no simulation record");
}

TEST(FigureReport, RejectsMismatchedTasks) {
  const std::vector<std::string> other_n = run_records(
      committed_spec("fig5_simulation", {{"tasks", "tasks 512"},
                                         {"replicas", "replicas 12"},
                                         {"sweep technique", "sweep technique SS FAC2 BOLD"},
                                         {"sweep workers", "sweep workers 2 4"}}),
      1);
  expect_rejected(fig5_records().original, other_n, "'tasks 256' vs 'tasks 512'");
}

TEST(FigureReport, RejectsABackendSweep) {
  std::vector<std::string> both = fig5_records().simulation;
  both.push_back(fig5_records().original.front());
  expect_rejected(fig5_records().original, both, "more than one record for cell 0");
}

TEST(FigureReport, RejectsACellOutsideTheGrid) {
  std::vector<std::string> simulation = fig5_records().simulation;
  ASSERT_TRUE(simulation.back().starts_with("{\"cell\":5,\"of\":6,"));
  simulation.back().replace(0, 9, "{\"cell\":9");
  expect_rejected(fig5_records().original, simulation, "record for cell 9 of a 6-cell grid");
}

TEST(FigureReport, RejectsZeroReplicas) {
  EXPECT_THROW((void)sweep::parse_grid(reduced("fig5_simulation", "SS FAC2 BOLD", "0")),
               std::invalid_argument);
}

TEST(FigureReport, Figure9SeriesSummarizesToTheRecordMean) {
  // fig9.sweep is the FAC/p=2 cell of fig8_simulation.sweep (cell 25)
  // with `series true`: the same runs, so at any replica count its
  // record's series summarizes to that cell's record mean, bit for bit.
  const Overrides twenty = {{"replicas", "replicas 20"}};
  const std::vector<std::string> fig9 = run_records(committed_spec("fig9", twenty), 4);
  ASSERT_EQ(fig9.size(), 1u);
  const std::optional<std::vector<double>> series = sweep::record_series(fig9.front());
  ASSERT_TRUE(series.has_value());
  ASSERT_EQ(series->size(), 20u);
  for (const double v : *series) EXPECT_GT(v, 0.0);

  const sweep::Grid fig8 = sweep::parse_grid(committed_spec("fig8_simulation", twenty));
  const sweep::Cell c = sweep::cell(fig8, 25);
  ASSERT_EQ(c.spec.config.technique, dls::Kind::kFAC);
  ASSERT_EQ(c.spec.config.workers, 2u);
  const exec::BatchJob job = sweep::batch_job(fig8, c);
  const std::string fig8_record =
      sweep::RecordRenderer(fig8).render(c, job, exec::BatchRunner().run_one(job));
  const std::optional<double> fig8_mean =
      sweep::record_summary_field(fig8_record, "avg_wasted_time", "mean");
  ASSERT_TRUE(fig8_mean.has_value());
  EXPECT_EQ(stats::summarize(*series).mean, *fig8_mean);  // bit for bit
  EXPECT_EQ(sweep::record_summary_field(fig9.front(), "avg_wasted_time", "mean"), fig8_mean);

  // The report's Figure 9 view prints that mean in the record's form.
  const std::string view = sweep::render_records_report(fig9);
  EXPECT_NE(view.find("=== Figure 9 view: per-run average wasted time, FAC, p = 2, n = 524288"),
            std::string::npos)
      << view;
  EXPECT_NE(view.find("| runs               | 20 "), std::string::npos) << view;
  EXPECT_NE(view.find("| " + support::fmt_shortest(*fig8_mean) + " "), std::string::npos)
      << view;
  EXPECT_NE(view.find("distribution of per-run values [s]:\n[0.0, 50.0) |"), std::string::npos)
      << view;
}

TEST(FigureReport, RecordsReportShowsEveryCellAndRefusesOnlyAnEmptyFile) {
  // One block per record, in file order: a record without a series
  // shows its cell's sweep assignment, experiment and summaries.
  const std::vector<std::string>& records = fig5_records().simulation;
  const std::string view = sweep::render_records_report(records);
  EXPECT_EQ(view.rfind("cell 0 (technique=SS, workers=2): technique SS, 256 tasks x 1 timesteps, "
                       "2 workers, ",
                       0),
            0u)
      << view;
  EXPECT_NE(view.find("\ncell 5 (technique=BOLD, workers=4): technique BOLD, "), std::string::npos)
      << view;
  EXPECT_NE(view.find(", 12 replicas (seeds "), std::string::npos) << view;
  EXPECT_EQ(view.find("Figure 9"), std::string::npos) << view;
  std::size_t tables = 0;
  for (std::size_t at = view.find("| measured value "); at != std::string::npos;
       at = view.find("| measured value ", at + 1)) {
    ++tables;
  }
  EXPECT_EQ(tables, records.size()) << view;
  const std::string mean =
      support::fmt(*sweep::record_summary_field(records[3], "avg_wasted_time", "mean"), 4);
  EXPECT_NE(view.find("| average wasted time [s] | " + mean + " "), std::string::npos) << view;

  EXPECT_THROW((void)sweep::render_records_report({}), std::invalid_argument);
}

/// The reduced grid of one side of a committed ablation pair.
std::string reduced_ablation(const std::string& name, const std::string& extra = "") {
  return reduced(name, "SS FAC2") + extra;
}

TEST(FigureReport, SameBackendPairIsAnAblationNamingItsKeys) {
  const sweep::FigureReport report = sweep::reduce_figure(
      {run_records(reduced_ablation("ablation_overhead_original"), 4),
       run_records(reduced_ablation("ablation_overhead_simulation"), 4)});
  EXPECT_EQ(report.original_backend, "hagerup");
  EXPECT_EQ(report.simulation_backend, "hagerup");
  EXPECT_EQ(report.ablation, "overhead inline -> analytic");
  ASSERT_EQ(report.cells.size(), 2u * 2u);
  for (const sweep::FigureCell& c : report.cells) {
    // Shared seeds: the accountings differ only by end effects, and the
    // inline run can only be longer.
    EXPECT_GT(c.original, 0.0);
    EXPECT_GT(c.simulation, 0.0);
  }
  const std::string text = sweep::render_figure_report(report, /*csv=*/false);
  EXPECT_NE(text.find("\nablation: overhead inline -> analytic\n"), std::string::npos) << text;
  EXPECT_NE(text.find("this ablation's grid:"), std::string::npos) << text;

  const sweep::FigureReport network = sweep::reduce_figure(
      {run_records(reduced_ablation("ablation_network_original"), 4),
       run_records(reduced_ablation("ablation_network_lan"), 4)});
  EXPECT_EQ(network.ablation, "latency 1e-12 -> 5e-04, bandwidth 1e+21 -> 1.25e+08");
  // Figure pairs on two backends name no ablation.
  EXPECT_EQ(fig5_report().ablation, "");
  EXPECT_EQ(sweep::render_figure_report(fig5_report(), false).find("ablation"),
            std::string::npos);
}

TEST(FigureReport, AblationSidesMayNotDifferInTheScience) {
  const std::vector<std::string> original =
      run_records(reduced_ablation("ablation_overhead_original"), 4);
  expect_rejected(original,
                  run_records(reduced_ablation("ablation_overhead_simulation", "h 0.25\n"), 4),
                  "cell 0 (SS, workers 2): the two sides differ beyond seed, seed_stride, "
                  "backend, rand48, overhead, latency and bandwidth: 'h 0.5' vs 'h 0.25'");
  expect_rejected(original,
                  run_records(reduced_ablation("ablation_overhead_simulation", "tasks 512\n"), 4),
                  "'tasks 256' vs 'tasks 512'");
}

TEST(FigureReport, AblationCellsMustVaryTheSameKeys) {
  // Cell 0 of the simulation side varies latency only, the other cells
  // latency and bandwidth: not one ablation.
  std::vector<std::string> simulation =
      run_records(reduced_ablation("ablation_network_cluster"), 4);
  const std::vector<std::string> latency_only = run_records(
      committed_spec("ablation_network_cluster", {{"tasks", "tasks 256"},
                                                  {"replicas", "replicas 12"},
                                                  {"sweep technique", "sweep technique SS FAC2"},
                                                  {"sweep workers", "sweep workers 2 4"},
                                                  {"bandwidth", ""}}),
      4);
  simulation.front() = latency_only.front();
  expect_rejected(run_records(reduced_ablation("ablation_network_original"), 4), simulation,
                  "cell 1 (SS, workers 4): the sides differ in 'latency 1e-12 -> 5e-05, "
                  "bandwidth 1e+21 -> 1e+09', at cell 0 in 'latency 1e-12 -> 5e-05'");
}

TEST(RecordSummaryField, ReadsEveryFieldAndRejectsPartialLines) {
  const std::string& line = fig5_records().simulation.front();
  EXPECT_EQ(sweep::record_summary_field(line, "chunks", "count"), 12.0);
  EXPECT_TRUE(sweep::record_summary_field(line, "makespan", "ci95_hi").has_value());
  EXPECT_FALSE(sweep::record_summary_field(line, "makespan", "nope").has_value());
  EXPECT_FALSE(sweep::record_summary_field(line, "nope", "mean").has_value());
  EXPECT_FALSE(
      sweep::record_summary_field(line.substr(0, line.size() - 1), "makespan", "mean"));
}

TEST(FigureReport, RejectsAnOddNumberOfFiles) {
  const std::vector<std::string>& o = fig5_records().original;
  const std::vector<std::string>& s = fig5_records().simulation;
  EXPECT_THROW((void)sweep::reduce_figure({}), std::invalid_argument);
  EXPECT_THROW((void)sweep::reduce_figure({o}), std::invalid_argument);
  EXPECT_THROW((void)sweep::reduce_figure({o, s, o}), std::invalid_argument);
}

TEST(FigureReport, NetworkKeysStayFixedAgainstNonBbnOriginals) {
  // The wider set of keys the sides may differ in applies only to a
  // bbn original: a Figure 5 simulation side with a network is refused.
  const std::vector<std::string> networked =
      run_records(reduced("fig5_simulation") + "latency 1e-3\n", 4);
  expect_rejected(fig5_records().original, networked, "'latency 0.001'");
}

}  // namespace
