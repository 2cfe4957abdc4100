// Science tripwire: what the committed specs produce, pinned.
//
// Every committed spec -- bench/specs/*.sweep (paper Figures 3-9, the
// Section III-B ablations, the adaptive extension, the e2e grid) and
// examples/*.sweep -- runs in
// process with `replicas 2` appended to its text (the last assignment
// of a key wins), and every record it writes is hashed with FNV-1a 64:
// once whole, and once per top-level JSON field (cell, of, backend,
// replicas, sweep, seed, seed_stride, experiment and the measured
// summaries).  The digests must equal the committed table
// tests/repro/committed_specs.digests.  A mismatch names the spec, the
// first differing cell (with its sweep assignment) and the first
// differing field, so a compiler flag or a libm that moves one Figure 8
// cell fails here instead of passing every golden pin.
//
// ctest runs this binary twice, at --threads 1 and --threads 4
// (repro_test_committed_specs_threads1/_threads4): both must give the
// same table, which also guards the thread-count byte identity of the
// committed specs.
//
// The rule: a change that moves a digest re-derives the table and
// states why in CHANGES.md.  Re-derive it from the repository root:
//
//   export DLS_TRIPWIRE_WRITE=tests/repro/committed_specs.digests
//   ./build/repro_test_committed_specs --gtest_filter='*OneThread'
//
// Table format: `spec <path>` opens a spec, `fields <name>...` names
// the top-level fields of the records below it, and each record line is
// `<cell> <backend> <record digest> <field digest>...` (hex; a field
// digest is the low 32 bits of the FNV-1a 64 of the field's value
// bytes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

namespace {

namespace fs = std::filesystem;

/// A record split into its top-level fields: (name, raw value bytes).
using Fields = std::vector<std::pair<std::string, std::string>>;

/// The top-level `"name":value` pairs of a compact JSON object line, in
/// order.  Strings may hold escaped quotes; values may nest.
Fields split_fields(std::string_view line) {
  Fields fields;
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    ADD_FAILURE() << "not a JSON object: " << line;
    return fields;
  }
  std::size_t i = 1;
  while (i + 1 < line.size()) {
    const std::size_t name_end = line.find('"', i + 1);
    std::string name(line.substr(i + 1, name_end - i - 1));
    const std::size_t value_start = name_end + 2;  // past `":`
    std::size_t j = value_start;
    int depth = 0;
    bool in_string = false;
    for (; j + 1 < line.size(); ++j) {
      const char c = line[j];
      if (in_string) {
        if (c == '\\') ++j;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    fields.emplace_back(std::move(name), std::string(line.substr(value_start, j - value_start)));
    i = j + 1;
  }
  return fields;
}

std::string hex(std::uint64_t value, int digits) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%0*llx", digits, static_cast<unsigned long long>(value));
  return buffer;
}

/// One record's row of the table.
struct Row {
  std::string cell;     ///< cell index
  std::string backend;
  std::string record;   ///< digest of the whole line
  std::vector<std::string> names;
  std::vector<std::string> fields;  ///< one digest per name
  std::string sweep;    ///< the record's sweep assignment (computed rows only)
};

using Table = std::vector<std::pair<std::string, std::vector<Row>>>;  // spec -> rows

Row row_of(const std::string& line) {
  Row row;
  row.record = hex(net::fnv1a64(line), 16);
  for (const auto& [name, value] : split_fields(line)) {
    if (name == "cell") row.cell = value;
    if (name == "backend") row.backend = value.substr(1, value.size() - 2);
    if (name == "sweep") row.sweep = value;
    row.names.push_back(name);
    row.fields.push_back(hex(net::fnv1a64(value) & 0xffffffffu, 8));
  }
  return row;
}

/// The committed specs, as paths relative to the source tree, sorted.
std::vector<std::string> committed_specs() {
  std::vector<std::string> specs;
  for (const char* dir : {"bench/specs", "examples"}) {
    const fs::path path = fs::path(DLS_SOURCE_DIR) / dir;
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.path().extension() == ".sweep") {
        specs.push_back(std::string(dir) + "/" + entry.path().filename().string());
      }
    }
  }
  std::sort(specs.begin(), specs.end());
  return specs;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Table run_committed_specs(unsigned threads) {
  Table table;
  for (const std::string& spec : committed_specs()) {
    const std::string text = read_file(fs::path(DLS_SOURCE_DIR) / spec) + "\nreplicas 2\n";
    const sweep::Grid grid = sweep::parse_grid(text);
    const sweep::SweepRunner runner(sweep::SweepRunner::Options{.threads = threads});
    std::ostringstream out;
    (void)runner.run(grid, {}, out);
    std::vector<Row> rows;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) rows.push_back(row_of(line));
    table.emplace_back(spec, std::move(rows));
  }
  return table;
}

std::string render(const Table& table) {
  std::string text =
      "# FNV-1a digests of the records of every committed spec at `replicas 2`\n"
      "# (tests/repro/test_committed_specs.cpp says how to re-derive them).\n";
  for (const auto& [spec, rows] : table) {
    text += "spec " + spec + "\n";
    const std::vector<std::string>* names = nullptr;
    for (const Row& row : rows) {
      if (names == nullptr || *names != row.names) {
        names = &row.names;
        text += "fields";
        for (const std::string& name : row.names) text += " " + name;
        text += "\n";
      }
      text += row.cell + " " + row.backend + " " + row.record;
      for (const std::string& field : row.fields) text += " " + field;
      text += "\n";
    }
  }
  return text;
}

Table parse_table(const std::string& text) {
  Table table;
  std::vector<std::string> names;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string first;
    words >> first;
    if (first == "spec") {
      std::string spec;
      words >> spec;
      table.emplace_back(spec, std::vector<Row>{});
    } else if (first == "fields") {
      names.clear();
      for (std::string name; words >> name;) names.push_back(name);
    } else if (!table.empty()) {
      Row row;
      row.cell = first;
      row.names = names;
      words >> row.backend >> row.record;
      for (std::string field; words >> field;) row.fields.push_back(field);
      table.back().second.push_back(std::move(row));
    }
  }
  return table;
}

/// The first field in which `got` differs from `want`.
std::string field_difference(const Row& want, const Row& got) {
  for (std::size_t f = 0; f < std::max(want.names.size(), got.names.size()); ++f) {
    const auto at = [f](const std::vector<std::string>& v) {
      return f < v.size() ? v[f] : std::string("<none>");
    };
    if (at(want.names) != at(got.names)) {
      return "field " + std::to_string(f) + " is '" + at(got.names) + "', the table has '" +
             at(want.names) + "'";
    }
    if (at(want.fields) != at(got.fields)) return "field '" + at(got.names) + "' differs";
  }
  return "the record differs, but no single field does";
}

/// Why `got` differs from `want`, naming the first differing cell and
/// field and counting the differing records; empty when they are the
/// same.
std::string first_difference(const std::vector<Row>& want, const std::vector<Row>& got) {
  if (want.size() != got.size()) {
    return std::to_string(got.size()) + " records, the table has " + std::to_string(want.size());
  }
  std::string first;
  std::size_t differing = 0;
  for (std::size_t r = 0; r < got.size(); ++r) {
    const Row& w = want[r];
    const Row& g = got[r];
    const std::string where = "cell " + g.cell + " (" + g.backend + ", sweep " + g.sweep + ")";
    if (w.cell != g.cell || w.backend != g.backend) {
      return "record " + std::to_string(r) + " is " + where + ", the table has cell " + w.cell +
             " (" + w.backend + ")";
    }
    if (w.record != g.record && differing++ == 0) first = where + ": " + field_difference(w, g);
  }
  if (differing > 1) {
    first += " (" + std::to_string(differing) + " of " + std::to_string(got.size()) +
             " records differ)";
  }
  return first;
}

void check_committed_specs(unsigned threads) {
  const Table got = run_committed_specs(threads);
  if (const char* path = std::getenv("DLS_TRIPWIRE_WRITE")) {
    std::ofstream(path, std::ios::binary) << render(got);
    GTEST_SKIP() << "wrote " << path;
  }
  const Table want =
      parse_table(read_file(fs::path(DLS_SOURCE_DIR) / "tests/repro/committed_specs.digests"));
  std::map<std::string, const std::vector<Row>*> wanted;
  for (const auto& [spec, rows] : want) wanted[spec] = &rows;
  for (const auto& [spec, rows] : got) {
    const auto it = wanted.find(spec);
    if (it == wanted.end()) {
      ADD_FAILURE() << spec << ": not in the digest table";
      continue;
    }
    const std::string difference = first_difference(*it->second, rows);
    EXPECT_TRUE(difference.empty()) << spec << ": " << difference;
    wanted.erase(it);
  }
  for (const auto& [spec, rows] : wanted) {
    ADD_FAILURE() << spec << ": in the table, but not on disk";
  }
}

TEST(CommittedSpecs, SplitFieldsKeepsNestedValuesAndEscapes) {
  const Fields fields = split_fields(R"({"a":1,"b":{"c":[1,2],"d":"x,}"},"e":"q\"{,"})");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(fields[1], (std::pair<std::string, std::string>{"b", R"({"c":[1,2],"d":"x,}"})"}));
  EXPECT_EQ(fields[2], (std::pair<std::string, std::string>{"e", R"("q\"{,")"}));
}

TEST(CommittedSpecs, DigestsHoldAtOneThread) { check_committed_specs(1); }

TEST(CommittedSpecs, DigestsHoldAtFourThreads) { check_committed_specs(4); }

}  // namespace
