#include "sweep/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "stats/summary.hpp"
#include "sweep/experiment.hpp"
#include "sweep/record.hpp"

namespace sweep {
namespace {

/// One side's records by scientific cell, checked to be a complete,
/// single-backend run of one grid.
std::map<std::size_t, std::string> records_by_cell(const std::vector<std::string>& lines,
                                                   const std::string& side) {
  std::map<std::size_t, std::string> by_cell;
  std::optional<std::size_t> grid_size;
  for (const std::string& line : lines) {
    const std::optional<RecordKey> key = record_key(line);
    if (!key) throw std::invalid_argument(side + ": malformed record line");
    if (grid_size.has_value() && record_grid_size(line) != grid_size) {
      throw std::invalid_argument(side + ": records come from grids of different sizes");
    }
    grid_size = record_grid_size(line);
    if (key->cell >= *grid_size) {
      throw std::invalid_argument(side + ": record for cell " + std::to_string(key->cell) +
                                  " of a " + std::to_string(*grid_size) + "-cell grid");
    }
    if (!by_cell.emplace(key->cell, line).second) {
      throw std::invalid_argument(side + ": more than one record for cell " +
                                  std::to_string(key->cell) +
                                  " (report compares two single-backend sweeps)");
    }
  }
  if (by_cell.empty()) throw std::invalid_argument(side + ": no records");
  return by_cell;
}

/// The experiment with the keys that may differ between the two sides
/// reset, so the remaining text is the scientific cell itself.  Against
/// a bbn original the simulation side's overhead and network keys are
/// free too: the machine model replaces them with its own dispatch and
/// remote-memory costs.
std::string scientific_text(ExperimentSpec spec, bool bbn_original) {
  spec.config.seed = 0;
  spec.seed_stride = 1;
  spec.backend = "mw";
  spec.config.use_rand48 = false;
  if (bbn_original) {
    const mw::Config defaults;
    spec.config.params.h = defaults.params.h;
    spec.config.overhead_mode = defaults.overhead_mode;
    spec.config.latency = defaults.latency;
    spec.config.bandwidth = defaults.bandwidth;
  }
  return serialize_experiment_spec(spec);
}

/// A curve's column label: the technique, with its minimal GSS chunk
/// when that is not the default of 1 ("GSS(80)").
std::string curve_label(const mw::Config& config) {
  std::string label = dls::to_string(config.technique);
  if (config.params.gss_min_chunk != 1) {
    label += '(';
    label += std::to_string(config.params.gss_min_chunk);
    label += ')';
  }
  return label;
}

std::string cell_name(std::size_t cell, const ExperimentSpec& spec) {
  return "cell " + std::to_string(cell) + " (" + curve_label(spec.config) + ", workers " +
         std::to_string(spec.config.workers) + ")";
}

/// The first line on which two experiment texts differ, as "a vs b".
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream a_in(a), b_in(b);
  std::string a_line, b_line;
  while (true) {
    const bool a_more = static_cast<bool>(std::getline(a_in, a_line));
    const bool b_more = static_cast<bool>(std::getline(b_in, b_line));
    if (!a_more) a_line.clear();
    if (!b_more) b_line.clear();
    if (a_line != b_line || (!a_more && !b_more)) {
      return "'" + a_line + "' vs '" + b_line + "'";
    }
  }
}

double mean_of(const std::string& line, const std::string& field, const std::string& what) {
  const std::optional<double> mean = record_summary_field(line, field, "mean");
  if (!mean) throw std::invalid_argument(what + ": record has no " + field + " mean");
  return *mean;
}

ExperimentSpec experiment_of(const std::string& line, const std::string& what) {
  const std::optional<std::string> echo = record_experiment(line);
  if (!echo) throw std::invalid_argument(what + ": record has no experiment echo");
  return parse_experiment_spec(*echo);
}

/// One (original, simulation) pair of record files.
FigureReport reduce_pair(const std::vector<std::string>& original,
                         const std::vector<std::string>& simulation) {
  const std::map<std::size_t, std::string> originals = records_by_cell(original, "original");
  const std::map<std::size_t, std::string> simulations =
      records_by_cell(simulation, "simulation");
  const std::size_t grid_size = *record_grid_size(originals.begin()->second);
  if (record_grid_size(simulations.begin()->second) != grid_size) {
    throw std::invalid_argument("the original and simulation sweeps are different grids (" +
                                std::to_string(grid_size) + " vs " +
                                std::to_string(*record_grid_size(simulations.begin()->second)) +
                                " cells)");
  }

  FigureReport report;
  for (std::size_t cell = 0; cell < grid_size; ++cell) {
    const auto o = originals.find(cell);
    const auto s = simulations.find(cell);
    if (o == originals.end() || s == simulations.end()) {
      throw std::invalid_argument(
          "cell " + std::to_string(cell) + " of " + std::to_string(grid_size) + ": no " +
          (o == originals.end() ? "original" : "simulation") +
          " record (an unfinished or unmerged sweep?)");
    }
    const std::string where = "cell " + std::to_string(cell);
    const ExperimentSpec o_spec = experiment_of(o->second, "original " + where);
    const ExperimentSpec s_spec = experiment_of(s->second, "simulation " + where);
    const std::string name = cell_name(cell, s_spec);
    const bool bbn_original = o_spec.backend == "bbn";
    if (const std::string o_text = scientific_text(o_spec, bbn_original),
        s_text = scientific_text(s_spec, bbn_original);
        o_text != s_text) {
      throw std::invalid_argument(
          name + ": the two sides differ beyond seed, seed_stride, backend" +
          (bbn_original ? ", rand48, h, overhead, latency and bandwidth: " : " and rand48: ") +
          first_difference(o_text, s_text));
    }
    if (cell == 0) {
      report.tasks = s_spec.config.tasks;
      report.replicas = s_spec.replicas;
      report.original_backend = o_spec.backend;
      report.simulation_backend = s_spec.backend;
      report.speedup = bbn_original;
    } else if (s_spec.config.tasks != report.tasks || s_spec.replicas != report.replicas ||
               o_spec.backend != report.original_backend ||
               s_spec.backend != report.simulation_backend) {
      throw std::invalid_argument(
          name + ": a figure has one task count, replica count and backend per side (" +
          std::to_string(report.tasks) + " tasks x " + std::to_string(report.replicas) +
          " replicas, " + report.original_backend + " vs " + report.simulation_backend +
          " at cell 0)");
    }

    FigureCell c;
    c.curve = curve_label(s_spec.config);
    c.technique = s_spec.config.technique;
    c.workers = s_spec.config.workers;
    const std::string field = report.speedup ? "speedup" : "avg_wasted_time";
    c.original = mean_of(o->second, field, "original " + name);
    c.simulation = mean_of(s->second, field, "simulation " + name);
    const stats::Discrepancy d = stats::discrepancy(c.original, c.simulation);
    c.discrepancy = d.absolute;
    c.relative_percent = d.relative_percent;
    for (const FigureCell& seen : report.cells) {
      if (seen.curve == c.curve && seen.workers == c.workers) {
        throw std::invalid_argument(name + ": repeats a curve and worker count; report "
                                           "expects a curve x workers grid");
      }
    }
    if (std::find(report.curves.begin(), report.curves.end(), c.curve) == report.curves.end()) {
      report.curves.push_back(c.curve);
    }
    if (std::find(report.workers.begin(), report.workers.end(), c.workers) ==
        report.workers.end()) {
      report.workers.push_back(c.workers);
    }
    report.cells.push_back(c);
  }
  if (report.cells.size() != report.curves.size() * report.workers.size()) {
    throw std::invalid_argument("the cells do not form a curve x workers grid (" +
                                std::to_string(report.cells.size()) + " cells for " +
                                std::to_string(report.curves.size()) + " curves x " +
                                std::to_string(report.workers.size()) + " worker counts)");
  }
  return report;
}

}  // namespace

FigureReport reduce_figure(const std::vector<std::vector<std::string>>& sides) {
  if (sides.empty() || sides.size() % 2 != 0) {
    throw std::invalid_argument("expected (original, simulation) pairs of record files, got " +
                                std::to_string(sides.size()) + " file(s)");
  }
  const auto reduce = [&](std::size_t k) {
    try {
      return reduce_pair(sides[k], sides[k + 1]);
    } catch (const std::invalid_argument& e) {
      if (sides.size() == 2) throw;
      throw std::invalid_argument("pair " + std::to_string(k / 2 + 1) + ": " + e.what());
    }
  };
  FigureReport report = reduce(0);
  for (std::size_t k = 2; k < sides.size(); k += 2) {
    const FigureReport more = reduce(k);
    const std::string pair = "pair " + std::to_string(k / 2 + 1);
    if (more.tasks != report.tasks || more.replicas != report.replicas ||
        more.workers != report.workers || more.original_backend != report.original_backend ||
        more.simulation_backend != report.simulation_backend) {
      throw std::invalid_argument(pair + ": every pair must agree with pair 1 on tasks, "
                                         "replicas, worker counts and backends");
    }
    for (const std::string& curve : more.curves) {
      if (std::find(report.curves.begin(), report.curves.end(), curve) != report.curves.end()) {
        throw std::invalid_argument(pair + ": curve " + curve + " is already in an earlier pair");
      }
      report.curves.push_back(curve);
    }
    report.cells.insert(report.cells.end(), more.cells.begin(), more.cells.end());
  }
  return report;
}

support::Table figure_table(const FigureReport& report, double FigureCell::*value) {
  std::vector<std::string> header = {"PEs"};
  header.insert(header.end(), report.curves.begin(), report.curves.end());
  support::Table table(std::move(header));
  for (const std::size_t workers : report.workers) {
    std::vector<std::string> row = {std::to_string(workers)};
    for (const std::string& curve : report.curves) {
      // Complete by construction: reduce_figure checked the grid.
      const auto cell = std::find_if(report.cells.begin(), report.cells.end(), [&](const auto& c) {
        return c.curve == curve && c.workers == workers;
      });
      row.push_back(support::fmt((*cell).*value, 2));
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::string render_figure_report(const FigureReport& report, bool csv) {
  const std::string unit = report.speedup ? "" : " [s]";
  std::string out = "=== " + std::string(report.speedup ? "speedup" : "average wasted time") +
                    ", n = " + std::to_string(report.tasks) + " tasks, " +
                    std::to_string(report.replicas) + " runs per cell and side ===\n";
  out += "sides: original = " + report.original_backend +
         " records, simulation = " + report.simulation_backend + " records\n\n";
  const auto emit = [&](const std::string& title, const support::Table& table) {
    out += title + "\n" + (csv ? table.to_csv() : table.to_ascii()) + "\n";
  };

  support::Table grid({"Number of tasks", "Number of PEs", "Runs"});
  std::string pes;
  for (const std::size_t workers : report.workers) {
    pes += (pes.empty() ? "" : "; ") + std::to_string(workers);
  }
  grid.add_row({std::to_string(report.tasks), pes, std::to_string(report.replicas)});
  // Paper Table III lists the BOLD experiments (Figures 5-8) only.
  emit(report.speedup
           ? "the TSS publication's experiment, this figure's grid:"
           : "paper Table III (overview of reproducibility experiments), this figure's row:",
       grid);
  emit("(a) values from the original side (" + report.original_backend + ")" + unit + ":",
       figure_table(report, &FigureCell::original));
  emit("(b) values from the simulation side (" + report.simulation_backend + ")" + unit + ":",
       figure_table(report, &FigureCell::simulation));
  emit("(c) discrepancy (simulation - original)" + unit + ":",
       figure_table(report, &FigureCell::discrepancy));
  emit("(d) relative discrepancy [%]:", figure_table(report, &FigureCell::relative_percent));

  // The prose summary the paper derives from each figure.
  double max_abs = 0.0, max_rel = 0.0, max_rel_no_outlier = 0.0;
  for (const FigureCell& c : report.cells) {
    max_abs = std::max(max_abs, std::abs(c.discrepancy));
    max_rel = std::max(max_rel, std::abs(c.relative_percent));
    if (c.technique != dls::Kind::kFAC || c.workers != 2) {
      max_rel_no_outlier = std::max(max_rel_no_outlier, std::abs(c.relative_percent));
    }
  }
  out += "summary: max |discrepancy| = " + support::fmt(max_abs, 2) +
         (report.speedup ? "" : " s") + "; max |relative| = " + support::fmt(max_rel, 1) + " %";
  if (!report.speedup) {
    out += "; excluding the FAC/p=2 outlier the paper discusses: " +
           support::fmt(max_rel_no_outlier, 1) + " %";
  }
  out += "\n";
  return out;
}

}  // namespace sweep
