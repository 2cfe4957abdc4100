#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/batch.hpp"
#include "sweep/experiment.hpp"

namespace sweep {

/// One swept dimension of a grid: `sweep <key> <v1> <v2> ...` in an
/// experiment file.  `key` is any key of the experiment-file format
/// (sweep/experiment.hpp); the values are its raw value texts.
struct Axis {
  std::string key;
  std::vector<std::string> values;
  std::size_t line_no = 0;  ///< 1-based line of the sweep directive
};

/// A declarative experiment grid: a base experiment description plus
/// the cartesian product of all sweep axes -- the factorial designs of
/// the paper (techniques x problem sizes x worker counts x perturbation
/// profiles, ~1000 replicas per cell) as one text file:
///
///   workload  exponential:1.0
///   tasks     65536
///   h         0.5
///   seed      1000003
///   replicas  1000
///   sweep technique SS GSS TSS FAC2 BOLD
///   sweep workers   64 256
///
/// Cell indices enumerate the product with the FIRST axis outermost
/// (slowest-varying) and the last axis fastest, i.e. row-major over the
/// axes in declaration order.
///
/// A grid has exactly one backend: the spec's `backend` key ("mw"
/// when absent; `dls_sweep --backend` appends one).  `backend` is not
/// a sweep axis -- parse_grid rejects `sweep backend ...`.  To compare
/// backends, run the spec once per backend and combine the outputs
/// with `dls_sweep merge` (sweep::merge_records): every backend runs a
/// cell on the same derived seed, and records key on (cell, backend).
struct Grid {
  /// The spec text with the sweep directives removed; every cell is
  /// this text plus one `key value` override line per axis (the
  /// experiment parser takes the last assignment of a key).
  std::string base_text;
  std::vector<Axis> axes;
  /// The backend every cell runs on (the base text's `backend` key;
  /// "mw" when absent).
  std::string backend;

  /// Number of cells: the product of the axis sizes (1 for no axes).
  [[nodiscard]] std::size_t cells() const;
};

/// One expanded cell of a grid.
struct Cell {
  std::size_t index = 0;
  /// (axis key, chosen value) in axis order.
  std::vector<std::pair<std::string, std::string>> assignment;
  /// The cell's parsed experiment.  The seed is the *base* seed as
  /// written in the spec; batch_job() applies the per-cell derivation.
  ExperimentSpec spec;
};

/// Parse a grid spec: `sweep` directives become axes, every other line
/// is passed through to the per-cell experiment text.  Validates the
/// directives (duplicate or empty axes are errors) and fully parses
/// cell 0 plus one cell per axis value, so a typo in a swept key fails
/// here and not an hour into a 10k-cell sweep.  A `sweep backend`
/// line is an error (see Grid).  Throws std::invalid_argument naming
/// the offending line.
[[nodiscard]] Grid parse_grid(std::string_view text);

/// The experiment text of cell `index`: base_text plus one override
/// line per axis.  Parseable by parse_experiment_spec.
[[nodiscard]] std::string cell_text(const Grid& grid, std::size_t index);

/// Expand cell `index` (lazily -- a 10k-cell grid never materializes
/// more than the cells actually run).
[[nodiscard]] Cell cell(const Grid& grid, std::size_t index);

/// The splitmix64 output function (Steele/Lea/Flood mix of a
/// golden-ratio-incremented counter).  A bijective avalanche mix: every
/// input bit affects every output bit.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

/// Decorrelated per-cell base seed for cell `cell_index` of a grid
/// whose experiment declares `base_seed`: the cell_index-th output of a
/// splitmix64 stream seeded with base_seed.
///
/// With a shared base seed and the default seed_stride of 1, every
/// cell would otherwise replay the exact same replica seed sequence,
/// silently correlating all cells of the grid (their "independent"
/// noise would be identical draws).  Single jobs run directly through
/// exec::BatchRunner are unaffected -- replica seeding stays
/// `config.seed + seed_stride * r`.  Pinned: published sweep records
/// replay only while this stream stays fixed.
[[nodiscard]] std::uint64_t derive_cell_seed(std::uint64_t base_seed, std::uint64_t cell_index);

/// The exec::BatchJob of a cell.  For a grid with at least one axis
/// the cell's base seed is decorrelated through derive_cell_seed
/// (splitmix64 over the cell index, so every backend's run of a grid
/// shares seeds); a plain experiment file without sweep directives
/// keeps its seed verbatim, so a record's experiment echo replays the
/// same seeds through `dls_sim -` (itself a one-cell grid).
[[nodiscard]] exec::BatchJob batch_job(const Grid& grid, const Cell& cell);

}  // namespace sweep
