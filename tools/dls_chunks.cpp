// dls_chunks: print the chunk sequence a DLS technique produces -- the
// "chunk table" view used throughout the scheduling literature, handy
// for teaching and for verifying an implementation by eye.
//
//   $ dls_chunks --technique GSS --tasks 100 --pes 4
//   GSS, n = 100, p = 4: 14 chunks
//   25 19 14 11 8 6 5 3 3 2 1 1 1 1
//
// `dls_chunks --tables` prints paper Table I (notation) and Table II
// (the parameters each technique requires, read from the
// implementation's requirement masks), plus the extension techniques'
// requirements.
//
// Exit codes: 0 = success, 1 = the technique rejected the parameters,
// 2 = bad command line.  The flags obey the rules an experiment spec
// puts on the same keys (sweep/experiment.hpp): --tasks and --pes are
// integers >= 1, --css-chunk and --gss-min integers >= 0, and --h,
// --mu and --sigma finite and >= 0.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "dls/chunk_sequence.hpp"
#include "dls/technique.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace {

[[noreturn]] void bad_value(const support::Flags& flags, const std::string& name,
                            const std::string& rule) {
  throw std::invalid_argument("--" + name + " " + flags.get(name) + ": must be " + rule);
}

std::size_t count_flag(const support::Flags& flags, const std::string& name, std::int64_t min) {
  const std::int64_t value = flags.get_int(name);
  if (value < min) bad_value(flags, name, "an integer >= " + std::to_string(min));
  return static_cast<std::size_t>(value);
}

double nonnegative_flag(const support::Flags& flags, const std::string& name) {
  const double value = flags.get_double(name);
  if (!(value >= 0.0) || !std::isfinite(value)) bad_value(flags, name, "finite and >= 0");
  return value;
}

void print_tables() {
  std::cout << "=== Paper Table I: notation ===\n";
  support::Table notation({"symbol", "definition"});
  notation.add_row({"p", "number of PEs"});
  notation.add_row({"n", "number of tasks"});
  notation.add_row({"r", "number of remaining tasks"});
  notation.add_row({"h", "scheduling overhead"});
  notation.add_row({"mu", "mean of the task execution times"});
  notation.add_row({"sigma", "variance of the task execution times"});
  notation.add_row({"f", "first chunk size"});
  notation.add_row({"l", "last chunk size"});
  notation.add_row({"m", "number of remaining and under execution tasks"});
  notation.print(std::cout);

  std::cout << "\n=== Paper Table II: required parameters for the DLS techniques ===\n";
  using namespace dls::requires_bit;
  const std::pair<unsigned, const char*> columns[] = {
      {kP, "p"},         {kN, "n"},     {kR, "r"},    {kH, "h"}, {kMu, "mu"},
      {kSigma, "sigma"}, {kFirst, "f"}, {kLast, "l"}, {kM, "m"}};
  std::vector<std::string> header = {"DLS"};
  for (const auto& [bit, label] : columns) header.emplace_back(label);
  support::Table table(std::move(header));

  dls::Params params;
  params.p = 4;
  params.n = 1024;
  params.mu = 1.0;
  params.sigma = 1.0;
  params.h = 0.5;
  const std::vector<dls::Kind>& table2 = dls::bold_publication_kinds();
  for (const dls::Kind kind : table2) {
    const unsigned mask = dls::make_technique(kind, params)->required_mask();
    std::vector<std::string> row = {dls::to_string(kind)};
    for (const auto& [bit, label] : columns) row.emplace_back((mask & bit) != 0 ? "X" : "");
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\n=== Extension techniques (beyond paper Table II) ===\n";
  support::Table ext({"DLS", "requires"});
  for (const dls::Kind kind : dls::all_kinds()) {
    if (std::find(table2.begin(), table2.end(), kind) != table2.end()) continue;
    const unsigned mask = dls::make_technique(kind, params)->required_mask();
    ext.add_row({dls::to_string(kind), dls::requires_to_string(mask)});
  }
  ext.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("technique", "GSS", "DLS technique name");
  flags.define("tasks", "100", "number of tasks n");
  flags.define("pes", "4", "number of PEs p");
  flags.define("h", "0.5", "scheduling overhead (FSC/BOLD)");
  flags.define("mu", "1.0", "task-time mean (FAC/TAP/BOLD)");
  flags.define("sigma", "1.0", "task-time stddev (FSC/FAC/TAP/BOLD)");
  flags.define("css-chunk", "0", "CSS chunk size (0 = n/p)");
  flags.define("gss-min", "1", "GSS minimum chunk size");
  flags.define("per-pe", "false", "annotate each chunk with the requesting PE");
  flags.define("tables", "false", "print paper Tables I-II (notation, required parameters)");
  flags.define("help", "false", "print this help");

  dls::Params params;
  std::string technique_name;
  bool per_pe = false;
  try {
    flags.parse(argc, argv);
    if (flags.get_bool("help")) {
      std::cout << flags.usage();
      return EXIT_SUCCESS;
    }
    if (!flags.positional().empty()) {
      throw std::invalid_argument("unexpected positional argument: " +
                                  flags.positional().front());
    }
    if (flags.get_bool("tables")) {
      print_tables();
      return EXIT_SUCCESS;
    }
    params.n = count_flag(flags, "tasks", 1);
    params.p = count_flag(flags, "pes", 1);
    params.h = nonnegative_flag(flags, "h");
    params.mu = nonnegative_flag(flags, "mu");
    params.sigma = nonnegative_flag(flags, "sigma");
    params.css_chunk = count_flag(flags, "css-chunk", 0);
    params.gss_min_chunk = count_flag(flags, "gss-min", 0);
    technique_name = flags.get("technique");
    (void)dls::kind_from_string(technique_name);  // typo'd names are usage errors
    per_pe = flags.get_bool("per-pe");
  } catch (const std::exception& e) {
    std::cerr << "dls_chunks: " << e.what() << "\n" << flags.usage();
    return 2;
  }

  try {
    const auto technique = dls::make_technique(technique_name, params);
    const auto records = dls::chunk_sequence(*technique);

    std::cout << technique->name() << ", n = " << params.n << ", p = " << params.p << ": "
              << records.size() << " chunks\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (i > 0) std::cout << ' ';
      if (per_pe) std::cout << 'w' << records[i].pe << ':';
      std::cout << records[i].size;
    }
    std::cout << '\n';
  } catch (const std::exception& e) {
    std::cerr << "dls_chunks: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
