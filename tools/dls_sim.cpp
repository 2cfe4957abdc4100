// dls_sim: command-line front end for one-off DLS simulations.
//
// Reads an experiment description (see repro/experiment_file.hpp) from
// a file or stdin and prints the measured values:
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
// Exit codes: 0 = success, 1 = the simulation failed, 2 = the
// experiment file (or command line) could not be parsed.  Parse errors
// name the offending line by number and text.

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "exec/backend.hpp"
#include "repro/experiment_file.hpp"

namespace {

constexpr int kExitRunError = 1;
constexpr int kExitParseError = 2;

void print_usage(std::ostream& out) {
  out << "usage: dls_sim <experiment-file | -> [--backend <name>]\n"
         "\n"
         "Runs the experiment described by the file (or stdin with '-')\n"
         "and prints the measured values.  See repro/experiment_file.hpp\n"
         "for the 'key value' format; 'replicas N' batches N seeds.\n"
         "--backend overrides the spec's execution vehicle\n(";
  for (const std::string& name : exec::backend_names()) {
    out << (name == exec::backend_names().front() ? "" : " | ") << name;
  }
  out << "; also an experiment key: 'backend hagerup').\n";
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
  std::string text;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "dls_sim: cannot open " << path << "\n";
      return kExitParseError;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  repro::ExperimentSpec spec;
  try {
    spec = repro::parse_experiment_spec(text);
  } catch (const std::exception& e) {
    std::cerr << "dls_sim: " << path << ": " << e.what() << "\n";
    return kExitParseError;
  }
  if (!backend_override.empty()) spec.backend = backend_override;
  try {
    repro::run_experiment(spec, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "dls_sim: " << e.what() << "\n";
    return kExitRunError;
  }
  return EXIT_SUCCESS;
}
