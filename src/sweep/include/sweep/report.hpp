#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dls/params.hpp"
#include "support/table.hpp"

namespace sweep {

/// One scientific cell of a two-simulator comparison (paper Figures
/// 3-8): the mean value each side measured, and their discrepancy as
/// stats::discrepancy defines it.
struct FigureCell {
  std::string curve;  ///< column label: the technique, plus "(k)" for gss_min k != 1
  dls::Kind technique{};
  std::size_t workers = 0;
  double original = 0.0;          ///< mean value, original side
  double simulation = 0.0;        ///< mean value, simulation side
  double discrepancy = 0.0;       ///< simulation - original
  double relative_percent = 0.0;  ///< discrepancy in % of original
};

/// The paired records of one figure: curve x workers grids at one task
/// count, each swept once per side.
struct FigureReport {
  std::size_t tasks = 0;
  std::size_t replicas = 0;
  std::string original_backend;
  std::string simulation_backend;
  /// The value compared: the `speedup` mean when the original side is
  /// the bbn machine model (paper Figures 3-4), else the
  /// `avg_wasted_time` mean (Figures 5-8).
  bool speedup = false;
  std::vector<std::string> curves;   ///< table columns, in pair and cell order
  std::vector<std::size_t> workers;  ///< table rows, in cell order
  std::vector<FigureCell> cells;
};

/// Reduce a figure's sweeps, given as record files in (original,
/// simulation) pairs: sides[2k] and sides[2k + 1] are the two sides of
/// bench/specs/<figure>_{original,simulation}.sweep.  Within a pair,
/// records are matched by scientific cell; both must be complete,
/// single-backend runs of the same grid, and each cell's experiment
/// echoes may differ only in `seed`, `seed_stride`, `backend` and
/// `rand48` -- the keys that make the two sides independent
/// simulators -- plus `h`, `overhead`, `latency` and `bandwidth` when
/// the original side is bbn, whose machine model has its own dispatch
/// costs.  A curve is a (technique, gss_min) pair, so a pair of sweeps
/// can add a curve a cartesian grid cannot express (GSS(80) beside
/// GSS).  All pairs must agree on tasks, replicas, worker counts and
/// backends.  Throws std::invalid_argument naming the offending cell
/// or pair otherwise, or for an odd number of files.
[[nodiscard]] FigureReport reduce_figure(const std::vector<std::vector<std::string>>& sides);

/// One subfigure: a workers x curve table of `value` (e.g.
/// &FigureCell::original for subfigure (a)).
[[nodiscard]] support::Table figure_table(const FigureReport& report,
                                          double FigureCell::*value);

/// The figure as `dls_sweep report` prints it: its grid (for Figures
/// 5-8 its row of paper Table III), subfigures (a)-(d) and the summary
/// line.  Tables are aligned ASCII, or CSV with `csv`.
[[nodiscard]] std::string render_figure_report(const FigureReport& report, bool csv);

}  // namespace sweep
