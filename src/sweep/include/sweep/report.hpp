#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dls/params.hpp"
#include "support/table.hpp"

namespace sweep {

/// One scientific cell of a two-simulator comparison (paper Figures
/// 5-8): the mean average wasted time each side measured, and their
/// discrepancy as stats::discrepancy defines it.
struct FigureCell {
  dls::Kind technique{};
  std::size_t workers = 0;
  double original = 0.0;          ///< mean avg_wasted_time, original side [s]
  double simulation = 0.0;        ///< mean avg_wasted_time, simulation side [s]
  double discrepancy = 0.0;       ///< simulation - original [s]
  double relative_percent = 0.0;  ///< discrepancy in % of original
};

/// The paired records of one figure: a technique x workers grid at one
/// task count, swept once per side.
struct FigureReport {
  std::size_t tasks = 0;
  std::size_t replicas = 0;
  std::string original_backend;
  std::string simulation_backend;
  std::vector<dls::Kind> techniques;  ///< table columns, in cell order
  std::vector<std::size_t> workers;   ///< table rows, in cell order
  std::vector<FigureCell> cells;      ///< by scientific cell index
};

/// Pair the records of a figure's original-side and simulation-side
/// sweeps (bench/specs/<figure>_{original,simulation}.sweep) by
/// scientific cell.  Both must be complete, single-backend runs of the
/// same grid: each cell's experiment echoes may differ only in `seed`,
/// `seed_stride`, `backend` and `rand48` -- the keys that make the two
/// sides independent simulators.  Throws std::invalid_argument naming
/// the offending cell otherwise.
[[nodiscard]] FigureReport reduce_figure(const std::vector<std::string>& original,
                                         const std::vector<std::string>& simulation);

/// One subfigure: a workers x technique table of `value` (e.g.
/// &FigureCell::original for subfigure (a)).
[[nodiscard]] support::Table figure_table(const FigureReport& report,
                                          double FigureCell::*value);

/// The figure as `dls_sweep report` prints it: its row of paper
/// Table III, subfigures (a)-(d) and the summary line.  Tables are
/// aligned ASCII, or CSV with `csv`.
[[nodiscard]] std::string render_figure_report(const FigureReport& report, bool csv);

}  // namespace sweep
