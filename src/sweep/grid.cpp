#include "sweep/grid.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sweep {
namespace {

[[noreturn]] void grid_error(std::size_t line_no, const std::string& line_text,
                             const std::string& message) {
  throw std::invalid_argument("sweep line " + std::to_string(line_no) + " ('" + line_text +
                              "'): " + message);
}

}  // namespace

std::size_t Grid::cells() const {
  std::size_t product = 1;
  for (const Axis& axis : axes) {
    if (axis.values.empty()) return 0;
    if (product > std::numeric_limits<std::size_t>::max() / axis.values.size()) {
      throw std::invalid_argument("sweep grid overflows size_t (axis '" + axis.key + "')");
    }
    product *= axis.values.size();
  }
  return product;
}

const Axis* Grid::backend_axis() const {
  // Canonicalized by parse_grid: if present, the backend axis is last.
  if (!axes.empty() && axes.back().key == "backend") return &axes.back();
  return nullptr;
}

std::size_t Grid::backend_count() const {
  const Axis* axis = backend_axis();
  return axis != nullptr ? axis->values.size() : 1;
}

std::size_t Grid::science_cells() const { return cells() / backend_count(); }

std::size_t Grid::science_axes() const {
  return axes.size() - (backend_axis() != nullptr ? 1 : 0);
}

Grid parse_grid(std::string_view text) {
  Grid grid;
  std::istringstream is{std::string(text)};
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    std::string stripped = raw;
    if (const auto hash = stripped.find('#'); hash != std::string::npos) stripped.resize(hash);
    std::istringstream ls(stripped);
    std::string first;
    if (!(ls >> first) || first != "sweep") {
      grid.base_text += raw;
      grid.base_text += '\n';
      continue;
    }

    Axis axis;
    axis.line_no = line_no;
    if (!(ls >> axis.key)) grid_error(line_no, raw, "sweep directive is missing a key");
    if (axis.key == "sweep") grid_error(line_no, raw, "'sweep sweep' is not a key");
    std::string value;
    while (ls >> value) {
      for (const std::string& existing : axis.values) {
        if (existing == value) {
          // A typo'd repeat would silently run duplicate cells (and
          // emit duplicate BENCH entry names in bench mode).
          grid_error(line_no, raw,
                     "duplicate value '" + value + "' in sweep axis '" + axis.key + "'");
        }
      }
      axis.values.push_back(value);
    }
    if (axis.values.empty()) {
      grid_error(line_no, raw, "sweep axis '" + axis.key + "' has no values");
    }
    for (const Axis& existing : grid.axes) {
      if (existing.key == axis.key) {
        grid_error(line_no, raw,
                   "duplicate sweep axis '" + axis.key + "' (first declared on line " +
                       std::to_string(existing.line_no) + ")");
      }
    }
    grid.axes.push_back(std::move(axis));
  }

  // Canonicalize the execution-vehicle dimension: the backend axis is
  // always innermost (fastest-varying) with name-sorted values, so
  // record order, shard assignment and merges do not depend on where or
  // in which value order the axis was declared -- and the scientific
  // cell index is simply index / backend_count().
  for (std::size_t a = 0; a + 1 < grid.axes.size(); ++a) {
    if (grid.axes[a].key == "backend") {
      std::rotate(grid.axes.begin() + static_cast<std::ptrdiff_t>(a),
                  grid.axes.begin() + static_cast<std::ptrdiff_t>(a) + 1, grid.axes.end());
      break;
    }
  }
  if (grid.backend_axis() != nullptr) {
    std::sort(grid.axes.back().values.begin(), grid.axes.back().values.end());
  }

  if (grid.cells() == 0) throw std::invalid_argument("sweep grid has no cells");
  // Validate every axis value now: parse the cell that combines value
  // v of axis a with value 0 of every other axis, so a typo in any
  // swept key or value fails at declaration time, not an hour into the
  // sweep.  That is sum(axis sizes) parses, not the full product.
  std::size_t stride = 1;
  std::vector<std::size_t> strides(grid.axes.size(), 1);
  for (std::size_t a = grid.axes.size(); a-- > 0;) {
    strides[a] = stride;
    stride *= grid.axes[a].values.size();
  }
  auto validate = [&](std::size_t index, const char* what) {
    try {
      (void)cell(grid, index);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("sweep grid: ") + what + " does not parse: " +
                                  e.what());
    }
  };
  validate(0, "cell 0");
  for (std::size_t a = 0; a < grid.axes.size(); ++a) {
    for (std::size_t v = 1; v < grid.axes[a].values.size(); ++v) {
      validate(v * strides[a],
               ("axis '" + grid.axes[a].key + "' value '" + grid.axes[a].values[v] + "'").c_str());
    }
  }
  if (grid.backend_axis() == nullptr) {
    grid.fixed_backend = cell(grid, 0).spec.backend;
  }
  return grid;
}

namespace {

/// Mixed-radix decode of `index`, last axis fastest (row-major in axis
/// declaration order; the backend axis, if any, is canonically last).
std::vector<std::pair<std::string, std::string>> decode_assignment(const Grid& grid,
                                                                   std::size_t index) {
  const std::size_t total = grid.cells();
  if (index >= total) {
    throw std::out_of_range("sweep cell " + std::to_string(index) + " out of range (grid has " +
                            std::to_string(total) + " cells)");
  }
  std::vector<std::pair<std::string, std::string>> assignment(grid.axes.size());
  std::size_t remainder = index;
  for (std::size_t a = grid.axes.size(); a-- > 0;) {
    const Axis& axis = grid.axes[a];
    assignment[a] = {axis.key, axis.values[remainder % axis.values.size()]};
    remainder /= axis.values.size();
  }
  return assignment;
}

}  // namespace

std::string cell_text(const Grid& grid, std::size_t index) {
  std::string text = grid.base_text;
  for (const auto& [key, value] : decode_assignment(grid, index)) {
    text += key;
    text += ' ';
    text += value;
    text += '\n';
  }
  return text;
}

Cell cell(const Grid& grid, std::size_t index) {
  Cell out;
  out.index = index;
  out.science_index = index / grid.backend_count();
  out.assignment = decode_assignment(grid, index);
  out.spec = parse_experiment_spec(cell_text(grid, index));
  return out;
}

std::string_view cell_backend(const Grid& grid, std::size_t index) {
  if (index >= grid.cells()) {
    throw std::out_of_range("sweep cell " + std::to_string(index) + " out of range (grid has " +
                            std::to_string(grid.cells()) + " cells)");
  }
  if (const Axis* axis = grid.backend_axis()) {
    return axis->values[index % axis->values.size()];
  }
  return grid.fixed_backend;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_cell_seed(std::uint64_t base_seed, std::uint64_t cell_index) {
  // The (cell_index + 1)-th state of the splitmix64 counter stream
  // starting at base_seed, passed through the output mix.  Bijective in
  // cell_index for a fixed base seed, so cells never collide.
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  return splitmix64(base_seed + (cell_index + 1) * kGolden);
}

exec::BatchJob batch_job(const Grid& grid, const Cell& cell) {
  exec::BatchJob job;
  job.config = cell.spec.config;
  job.replicas = cell.spec.replicas;
  job.seed_stride = cell.spec.seed_stride;
  job.backend = cell.spec.backend;
  if (grid.science_axes() > 0) {
    // Decorrelate the cells: with a shared base seed and the default
    // stride of 1, every cell would otherwise replay the same replica
    // seed sequence (see derive_cell_seed).  The scientific index
    // drives the derivation, so every backend of a cell replays the
    // cell on identical seeds -- the paper's cross-vehicle comparison.
    job.config.seed = derive_cell_seed(cell.spec.config.seed, cell.science_index);
  }
  return job;
}

}  // namespace sweep
