// dls_check: cross-backend conformance and property-testing front end.
//
// Generates seeded random scenarios spanning the full Config space,
// runs each through the applicable backends (mw message-passing
// simulator, hagerup direct simulator, native runtime executor), and
// checks the invariant catalog of check/invariants.hpp.  Violations
// are reported as minimized experiment files replayable with
// `dls_sweep -`.
//
//   $ dls_check --runs 500 --seed 1
//   dls_check: 500 scenarios, all invariants hold
//
// Two artifact-audit modes check the distributed sweep's outputs
// (check/dist.hpp) instead of generating scenarios:
//
//   $ dls_check records merged.jsonl --spec grid.sweep
//   $ dls_check leases workdir/events.jsonl
//
// A coordinator's record journal needs no audit mode of its own: it is
// a record file, and the coordinator's merge rejects conflicting
// duplicates in it (sweep::scan_records) before writing --out.
//
// Exit codes: 0 = all invariants hold, 1 = violations found (or the
// checker itself failed), 2 = bad command line.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/dist.hpp"
#include "check/net.hpp"
#include "check/runner.hpp"
#include "dist/protocol.hpp"
#include "support/flags.hpp"
#include "sweep/grid.hpp"

namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// `dls_check records`: audit merged sweep outputs (no duplicate
// (cell, backend); with --spec, exact grid coverage).
int records_mode(int argc, char** argv) {
  support::Flags flags;
  flags.define("spec", "", "grid spec; also check the merged output covers it exactly");
  flags.define("help", "false", "print this help");
  std::vector<std::string> files;
  std::string spec_path;
  try {
    flags.parse(argc, argv);
    if (flags.get_bool("help")) {
      std::cout << "usage: dls_check records <merged.jsonl>... [--spec <grid>]\n"
                << flags.usage();
      return EXIT_SUCCESS;
    }
    // positional()[0] is the mode word "records".
    files.assign(flags.positional().begin() + 1, flags.positional().end());
    spec_path = flags.get("spec");
    if (files.empty()) throw std::invalid_argument("records mode needs at least one file");
  } catch (const std::exception& e) {
    std::cerr << "dls_check: " << e.what() << "\n" << flags.usage();
    return 2;
  }

  try {
    sweep::Grid grid;
    if (!spec_path.empty()) {
      std::ifstream in(spec_path);
      if (!in) throw std::invalid_argument("cannot open " + spec_path);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      grid = sweep::parse_grid(buffer.str());
    }
    for (const std::string& path : files) {
      const std::vector<std::string> lines = read_lines(path);
      const auto violation = spec_path.empty() ? check::check_merged_unique_cells(lines)
                                               : check::check_merged_complete(grid, lines);
      if (violation) {
        std::cerr << "dls_check: " << path << ": "
                  << (spec_path.empty() ? "merged_unique" : "merged_complete") << ": "
                  << *violation << "\n";
        return EXIT_FAILURE;
      }
    }
    std::cout << "dls_check: " << files.size() << " merged file(s), "
              << (spec_path.empty() ? "merged_unique" : "merged_complete") << " holds\n";
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "dls_check: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}

// `dls_check leases`: replay a coordinator lease-event log and check
// no stripe was ever held by two live workers (check/dist.hpp), plus
// the transport invariant (check/net.hpp): leases only after HELLO.
// One command audits `coordinate` and `serve` logs alike.
int leases_mode(int argc, char** argv) {
  support::Flags flags;
  flags.define("help", "false", "print this help");
  std::vector<std::string> files;
  try {
    flags.parse(argc, argv);
    if (flags.get_bool("help")) {
      std::cout << "usage: dls_check leases <events.jsonl>...\n" << flags.usage();
      return EXIT_SUCCESS;
    }
    files.assign(flags.positional().begin() + 1, flags.positional().end());
    if (files.empty()) throw std::invalid_argument("leases mode needs at least one events log");
  } catch (const std::exception& e) {
    std::cerr << "dls_check: " << e.what() << "\n" << flags.usage();
    return 2;
  }

  try {
    for (const std::string& path : files) {
      std::vector<dist::LeaseEvent> events;
      for (const std::string& line : read_lines(path)) {
        // Non-events (a tail torn by a coordinator kill) are tolerated,
        // like record tails.
        if (auto event = dist::parse_lease_event(line)) events.push_back(std::move(*event));
      }
      if (const auto violation = check::check_lease_exclusivity(events)) {
        std::cerr << "dls_check: " << path << ": lease_exclusivity: " << *violation << "\n";
        return EXIT_FAILURE;
      }
      if (const auto violation = check::check_hello_before_lease(events)) {
        std::cerr << "dls_check: " << path << ": hello_before_lease: " << *violation << "\n";
        return EXIT_FAILURE;
      }
      std::cout << "dls_check: " << path << ": " << events.size()
                << " event(s), lease_exclusivity + hello_before_lease hold\n";
    }
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "dls_check: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "records") == 0) return records_mode(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "leases") == 0) return leases_mode(argc, argv);
  support::Flags flags;
  flags.define("runs", "100", "number of scenarios to generate and check");
  flags.define("seed", "1", "scenario stream seed");
  flags.define("max-tasks", "4096", "largest generated task count n");
  flags.define("max-workers", "16", "largest generated worker count p");
  flags.define("no-minimize", "false", "report violations without shrinking them");
  flags.define("no-runtime", "false", "skip the native threaded backend");
  flags.define("stride", "8", "run expensive cross-execution checks every k-th scenario (0 = never)");
  flags.define("threads", "0", "scenario-level worker threads (0 = hardware)");
  flags.define("help", "false", "print this help");

  check::CheckOptions options;
  try {
    flags.parse(argc, argv);
    if (flags.get_bool("help")) {
      std::cout << flags.usage();
      return EXIT_SUCCESS;
    }
    if (!flags.positional().empty()) {
      throw std::invalid_argument("unexpected positional argument: " + flags.positional().front());
    }
    options.runs = static_cast<std::size_t>(flags.get_int("runs"));
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    options.scenario.max_tasks = static_cast<std::size_t>(flags.get_int("max-tasks"));
    options.scenario.max_workers = static_cast<std::size_t>(flags.get_int("max-workers"));
    options.minimize = !flags.get_bool("no-minimize");
    options.check_runtime = !flags.get_bool("no-runtime");
    options.expensive_stride = static_cast<std::size_t>(flags.get_int("stride"));
    options.threads = static_cast<unsigned>(flags.get_int("threads"));
    if (options.runs == 0 || options.scenario.max_tasks == 0 ||
        options.scenario.max_workers == 0) {
      throw std::invalid_argument("--runs, --max-tasks and --max-workers must be >= 1");
    }
  } catch (const std::exception& e) {
    std::cerr << "dls_check: " << e.what() << "\n" << flags.usage();
    return 2;
  }

  try {
    const check::CheckReport report = check::run_checks(options);
    return check::print_report(report, std::cout) ? EXIT_SUCCESS : EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "dls_check: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
