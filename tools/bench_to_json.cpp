// bench_to_json: normalize google-benchmark JSON output into the
// compact BENCH_*.json files tracked for the perf trajectory.
//
//   bench_simx_core --benchmark_format=json > raw.json
//   bench_to_json raw.json BENCH_simx_core.json
//   bench_to_json - BENCH_micro_chunks.json   # read stdin
//
// Only the fields that matter for trend tracking are kept: benchmark
// name, real time (normalized to milliseconds) and items/s.  The
// parser leans on google-benchmark's stable pretty-printed layout (one
// "key": value pair per line inside the "benchmarks" array).

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

struct BenchEntry {
  std::string name;
  double real_time = 0.0;
  std::string time_unit = "ns";
  std::optional<double> items_per_second;
};

/// Extract the value of `"key": ...` on `line`; returns the raw value
/// text (quotes stripped for strings) or nullopt.
std::optional<std::string> field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::string value = line.substr(pos + needle.size());
  // Trim whitespace and the trailing comma.
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) value.erase(0, 1);
  while (!value.empty() &&
         (value.back() == ',' || value.back() == ' ' || value.back() == '\r')) {
    value.pop_back();
  }
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  return value;
}

/// Strict number parse for a benchmark field.  strtod without
/// endptr/errno checking turns a malformed value into a silent 0.0
/// entry -- a legitimate-looking but wrong data point in the tracked
/// perf trajectory.  Reports the offending line (number and text), the
/// same style as the experiment-file parse errors.
double to_number(const std::string& value, std::size_t line_no, const std::string& line) {
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("bench json line " + std::to_string(line_no) + " ('" + line +
                                "'): bad number: " + value);
  }
  return out;
}

double to_milliseconds(double value, const std::string& unit) {
  if (unit == "ns") return value * 1e-6;
  if (unit == "us") return value * 1e-3;
  if (unit == "ms") return value;
  if (unit == "s") return value * 1e3;
  throw std::invalid_argument("unknown time_unit: " + unit);
}

/// True if `line` is the closing brace of a benchmarks-array object.
bool closes_object(const std::string& line) {
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    if (c == '}') return true;
    return false;
  }
  return false;
}

std::vector<BenchEntry> parse_benchmarks(std::istream& in) {
  std::vector<BenchEntry> entries;
  std::string line;
  std::size_t line_no = 0;
  bool in_benchmarks = false;
  std::optional<BenchEntry> current;
  while (std::getline(in, line)) {
    ++line_no;
    if (!in_benchmarks) {
      if (line.find("\"benchmarks\":") != std::string::npos) in_benchmarks = true;
      continue;
    }
    if (const auto name = field(line, "name")) {
      current = BenchEntry{};
      current->name = *name;
      // UseRealTime() benches carry a "/real_time" name suffix; strip
      // it so the committed entry names stay stable whether or not a
      // bench measures wall-clock time.
      constexpr std::string_view kRealTimeSuffix = "/real_time";
      if (current->name.ends_with(kRealTimeSuffix)) {
        current->name.resize(current->name.size() - kRealTimeSuffix.size());
      }
      continue;
    }
    if (!current) continue;
    if (closes_object(line)) {
      entries.push_back(*current);
      current.reset();
      continue;
    }
    if (const auto run_type = field(line, "run_type")) {
      // Skip aggregate rows (mean/median/stddev of --benchmark_repetitions).
      if (*run_type != "iteration") current.reset();
      continue;
    }
    if (const auto v = field(line, "real_time")) {
      current->real_time = to_number(*v, line_no, line);
    } else if (const auto u = field(line, "time_unit")) {
      current->time_unit = *u;
    } else if (const auto ips = field(line, "items_per_second")) {
      current->items_per_second = to_number(*ips, line_no, line);
    }
  }
  return entries;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: bench_to_json <google-benchmark-json | -> <output.json>\n";
    return EXIT_FAILURE;
  }
  const std::string input_path = argv[1];
  const std::string output_path = argv[2];

  std::vector<BenchEntry> entries;
  try {
    if (input_path == "-") {
      entries = parse_benchmarks(std::cin);
    } else {
      std::ifstream in(input_path);
      if (!in) {
        std::cerr << "bench_to_json: cannot open " << input_path << "\n";
        return EXIT_FAILURE;
      }
      entries = parse_benchmarks(in);
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_to_json: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  if (entries.empty()) {
    std::cerr << "bench_to_json: no benchmark entries found in " << input_path << "\n";
    return EXIT_FAILURE;
  }

  std::vector<double> real_time_ms;
  real_time_ms.reserve(entries.size());
  try {
    for (const BenchEntry& e : entries) {
      real_time_ms.push_back(to_milliseconds(e.real_time, e.time_unit));
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_to_json: " << e.what() << "\n";
    return EXIT_FAILURE;
  }

  std::ofstream output(output_path);
  if (!output) {
    std::cerr << "bench_to_json: cannot write " << output_path << "\n";
    return EXIT_FAILURE;
  }
  // The dls-bench-v1 schema of the committed BENCH_*.json files.
  output << "{\n  \"schema\": \"dls-bench-v1\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    output << "    {\"name\": \"" << entries[i].name << "\", \"real_time_ms\": " << real_time_ms[i];
    if (entries[i].items_per_second) {
      output << ", \"items_per_second\": " << *entries[i].items_per_second;
    }
    output << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  output << "  ]\n}\n";
  std::cout << "bench_to_json: wrote " << entries.size() << " entries to " << output_path
            << "\n";
  return EXIT_SUCCESS;
}
