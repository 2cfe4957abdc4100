// dls_sim: command-line front end for one-off DLS simulations.
//
// Reads an experiment description (see sweep/experiment.hpp) from a
// file or stdin, runs it as a one-cell `dls_sweep` (sweep::SweepRunner)
// and prints the measured values from that cell's record, so every
// number equals the `dls_sweep` record of the same file:
//
//   $ cat > exp.txt <<EOF
//   technique FAC2
//   tasks     8192
//   workers   8
//   workload  exponential:1.0
//   h         0.5
//   EOF
//   $ dls_sim exp.txt
//
//   $ echo "technique GSS
//   tasks 1000
//   workers 4
//   workload constant:0.002" | dls_sim -
//
// The Tzen-Ni overhead and imbalance degrees are not record fields, so
// dls_sim does not print them (mw::Metrics still carries them).
//
// Exit codes: 0 = success, 1 = the simulation failed, 2 = the
// experiment file (or command line) could not be parsed.  Parse errors
// name the offending line by number and text.

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "exec/backend.hpp"
#include "support/table.hpp"
#include "sweep/experiment.hpp"
#include "sweep/grid.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"

namespace {

constexpr int kExitRunError = 1;
constexpr int kExitParseError = 2;

void print_usage(std::ostream& out) {
  out << "usage: dls_sim <experiment-file | -> [--backend <name>]\n"
         "\n"
         "Runs the experiment described by the file (or stdin with '-')\n"
         "as a one-cell dls_sweep and prints the measured values from its\n"
         "record (no Tzen-Ni overhead/imbalance degrees).  See\n"
         "sweep/experiment.hpp for the 'key value' format; 'replicas N'\n"
         "batches N seeds.\n"
         "--backend overrides the spec's execution vehicle\n(";
  for (const std::string& name : exec::backend_names()) {
    out << (name == exec::backend_names().front() ? "" : " | ") << name;
  }
  out << "; also an experiment key: 'backend hagerup').\n";
}

/// The `stat` field of the record's `summary` object.
double field(std::string_view record, std::string_view summary, std::string_view stat) {
  return sweep::record_summary_field(record, summary, stat).value();
}

void print_single_run(const sweep::ExperimentSpec& spec, std::string_view record) {
  const mw::Config& cfg = spec.config;
  support::Table table({"measured value", "result"});
  table.add_row({"technique", dls::to_string(cfg.technique)});
  table.add_row({"tasks x timesteps", std::to_string(cfg.tasks) + " x " +
                                          std::to_string(cfg.timesteps)});
  table.add_row({"workers", std::to_string(cfg.workers)});
  table.add_row({"workload", cfg.workload->name()});
  if (spec.backend != "mw") table.add_row({"backend", spec.backend});
  table.add_row({"makespan [s]", support::fmt(field(record, "makespan", "mean"), 4)});
  table.add_row({"scheduling operations", support::fmt(field(record, "chunks", "mean"), 0)});
  table.add_row(
      {"average wasted time [s]", support::fmt(field(record, "avg_wasted_time", "mean"), 4)});
  table.add_row({"speedup", support::fmt(field(record, "speedup", "mean"), 3)});
  table.print(std::cout);
}

void print_replica_summary(const sweep::ExperimentSpec& spec, std::string_view record) {
  const mw::Config& cfg = spec.config;
  std::cout << "technique " << dls::to_string(cfg.technique) << ", " << cfg.tasks
            << " tasks x " << cfg.timesteps << " timesteps, " << cfg.workers << " workers, "
            << cfg.workload->name() << ", ";
  if (spec.backend != "mw") std::cout << spec.backend << " backend, ";
  std::cout << spec.replicas << " replicas (seeds " << cfg.seed;
  if (spec.seed_stride == 1) {
    std::cout << ".." << cfg.seed + spec.replicas - 1;
  } else {
    std::cout << " + " << spec.seed_stride << "*r";
  }
  std::cout << ")\n";
  support::Table table({"measured value", "mean", "stddev", "min", "max"});
  auto row = [&](const char* name, std::string_view summary, int digits) {
    table.add_row({name, support::fmt(field(record, summary, "mean"), digits),
                   support::fmt(field(record, summary, "stddev"), digits),
                   support::fmt(field(record, summary, "min"), digits),
                   support::fmt(field(record, summary, "max"), digits)});
  };
  row("makespan [s]", "makespan", 4);
  row("average wasted time [s]", "avg_wasted_time", 4);
  row("speedup", "speedup", 3);
  row("scheduling operations", "chunks", 1);
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0)) {
    print_usage(std::cout);
    return EXIT_SUCCESS;
  }
  std::string backend_override;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--backend") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "dls_sim: --backend needs a value\n";
        return kExitParseError;
      }
      backend_override = argv[++i];
      if (!exec::is_backend_name(backend_override)) {
        std::cerr << "dls_sim: unknown backend '" << backend_override << "' (known:";
        for (const std::string& name : exec::backend_names()) std::cerr << " " << name;
        std::cerr << ")\n";
        return kExitParseError;
      }
    } else if (path.empty()) {
      path = argv[i];
    } else {
      print_usage(std::cerr);
      return kExitParseError;
    }
  }
  if (path.empty()) {
    print_usage(std::cerr);
    return kExitParseError;
  }
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "dls_sim: cannot open " << path << "\n";
      return kExitParseError;
    }
  }
  std::ostringstream buffer;
  buffer << (path == "-" ? std::cin.rdbuf() : file.rdbuf());
  std::string text = buffer.str();

  sweep::Grid grid;
  try {
    // The experiment parser first: it names a `sweep` line (grid specs
    // belong to dls_sweep) and every bad key by its line.
    (void)sweep::parse_experiment_spec(text);
    // The last assignment of a key wins.
    if (!backend_override.empty()) text += "\nbackend " + backend_override + "\n";
    grid = sweep::parse_grid(text);
  } catch (const std::exception& e) {
    std::cerr << "dls_sim: " << path << ": " << e.what() << "\n";
    return kExitParseError;
  }
  try {
    std::ostringstream out;
    (void)sweep::SweepRunner().run(grid, {}, out);
    std::string record = out.str();
    if (record.ends_with('\n')) record.pop_back();
    // The table's configuration side comes from the record's own
    // experiment echo, so nothing printed bypasses the record.
    const sweep::ExperimentSpec spec =
        sweep::parse_experiment_spec(sweep::record_experiment(record).value());
    if (spec.replicas <= 1) {
      print_single_run(spec, record);
    } else {
      print_replica_summary(spec, record);
    }
  } catch (const std::exception& e) {
    std::cerr << "dls_sim: " << e.what() << "\n";
    return kExitRunError;
  }
  return EXIT_SUCCESS;
}
