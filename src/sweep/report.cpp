#include "sweep/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "repro/experiment_file.hpp"
#include "stats/summary.hpp"
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

std::string cell_name(std::size_t cell, const repro::ExperimentSpec& spec) {
  return "cell " + std::to_string(cell) + " (" + dls::to_string(spec.config.technique) +
         ", workers " + std::to_string(spec.config.workers) + ")";
}

/// The experiment with the keys that may differ between the two sides
/// reset, so the remaining text is the scientific cell itself.
std::string scientific_text(repro::ExperimentSpec spec) {
  spec.config.seed = 0;
  spec.seed_stride = 1;
  spec.backend = "mw";
  spec.config.use_rand48 = false;
  return repro::serialize_experiment_spec(spec);
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

double mean_wasted_time(const std::string& line, const std::string& what) {
  const std::optional<double> mean = record_summary_field(line, "avg_wasted_time", "mean");
  if (!mean) throw std::invalid_argument(what + ": record has no avg_wasted_time mean");
  return *mean;
}

repro::ExperimentSpec experiment_of(const std::string& line, const std::string& what) {
  const std::optional<std::string> echo = record_experiment(line);
  if (!echo) throw std::invalid_argument(what + ": record has no experiment echo");
  return repro::parse_experiment_spec(*echo);
}

}  // namespace

FigureReport reduce_figure(const std::vector<std::string>& original,
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
    const repro::ExperimentSpec o_spec = experiment_of(o->second, "original " + where);
    const repro::ExperimentSpec s_spec = experiment_of(s->second, "simulation " + where);
    const std::string name = cell_name(cell, s_spec);
    if (const std::string o_text = scientific_text(o_spec), s_text = scientific_text(s_spec);
        o_text != s_text) {
      throw std::invalid_argument(
          name + ": the two sides differ beyond seed, seed_stride, backend and rand48: " +
          first_difference(o_text, s_text));
    }
    if (cell == 0) {
      report.tasks = s_spec.config.tasks;
      report.replicas = s_spec.replicas;
      report.original_backend = o_spec.backend;
      report.simulation_backend = s_spec.backend;
    } else if (s_spec.config.tasks != report.tasks || s_spec.replicas != report.replicas) {
      throw std::invalid_argument(name + ": a figure has one task count and replica count (" +
                                  std::to_string(report.tasks) + " tasks x " +
                                  std::to_string(report.replicas) + " replicas at cell 0)");
    }

    FigureCell c;
    c.technique = s_spec.config.technique;
    c.workers = s_spec.config.workers;
    c.original = mean_wasted_time(o->second, "original " + name);
    c.simulation = mean_wasted_time(s->second, "simulation " + name);
    const stats::Discrepancy d = stats::discrepancy(c.original, c.simulation);
    c.discrepancy = d.absolute;
    c.relative_percent = d.relative_percent;
    for (const FigureCell& seen : report.cells) {
      if (seen.technique == c.technique && seen.workers == c.workers) {
        throw std::invalid_argument(name + ": repeats a technique and worker count; report "
                                           "expects a technique x workers grid");
      }
    }
    if (std::find(report.techniques.begin(), report.techniques.end(), c.technique) ==
        report.techniques.end()) {
      report.techniques.push_back(c.technique);
    }
    if (std::find(report.workers.begin(), report.workers.end(), c.workers) ==
        report.workers.end()) {
      report.workers.push_back(c.workers);
    }
    report.cells.push_back(c);
  }
  if (report.cells.size() != report.techniques.size() * report.workers.size()) {
    throw std::invalid_argument("the cells do not form a technique x workers grid (" +
                                std::to_string(report.cells.size()) + " cells for " +
                                std::to_string(report.techniques.size()) + " techniques x " +
                                std::to_string(report.workers.size()) + " worker counts)");
  }
  return report;
}

support::Table figure_table(const FigureReport& report, double FigureCell::*value) {
  std::vector<std::string> header = {"PEs"};
  for (const dls::Kind technique : report.techniques) header.push_back(dls::to_string(technique));
  support::Table table(std::move(header));
  for (const std::size_t workers : report.workers) {
    std::vector<std::string> row = {std::to_string(workers)};
    for (const dls::Kind technique : report.techniques) {
      // Complete by construction: reduce_figure checked the grid.
      const auto cell = std::find_if(report.cells.begin(), report.cells.end(), [&](const auto& c) {
        return c.technique == technique && c.workers == workers;
      });
      row.push_back(support::fmt((*cell).*value, 2));
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::string render_figure_report(const FigureReport& report, bool csv) {
  std::string out = "=== average wasted time, n = " + std::to_string(report.tasks) + " tasks, " +
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
  emit("paper Table III (overview of reproducibility experiments), this figure's row:", grid);
  emit("(a) values from the original side (" + report.original_backend + ") [s]:",
       figure_table(report, &FigureCell::original));
  emit("(b) values from the simulation side (" + report.simulation_backend + ") [s]:",
       figure_table(report, &FigureCell::simulation));
  emit("(c) discrepancy (simulation - original) [s]:",
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
         " s; max |relative| = " + support::fmt(max_rel, 1) +
         " %; excluding the FAC/p=2 outlier the paper discusses: " +
         support::fmt(max_rel_no_outlier, 1) + " %\n";
  return out;
}

}  // namespace sweep
