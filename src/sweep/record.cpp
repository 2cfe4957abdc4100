#include "sweep/record.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <map>
#include <stdexcept>

#include "support/table.hpp"
#include "support/text.hpp"
#include "sweep/experiment.hpp"

namespace sweep {
namespace {

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trip number; non-finite values become quoted strings
/// so the record stays valid JSON.
std::string json_number(double value) {
  if (std::isnan(value)) return "\"nan\"";
  if (std::isinf(value)) return value > 0 ? "\"inf\"" : "\"-inf\"";
  return support::fmt_shortest(value);
}

std::string summary_json(const stats::Summary& s) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(s.count);
  out += ",\"mean\":" + json_number(s.mean);
  out += ",\"stddev\":" + json_number(s.stddev);
  out += ",\"min\":" + json_number(s.min);
  out += ",\"max\":" + json_number(s.max);
  out += ",\"median\":" + json_number(s.median);
  out += ",\"p5\":" + json_number(s.p5);
  out += ",\"p95\":" + json_number(s.p95);
  out += ",\"ci95_lo\":" + json_number(s.ci95_lo);
  out += ",\"ci95_hi\":" + json_number(s.ci95_hi);
  out += ",\"nan_count\":" + std::to_string(s.nan_count);
  out += "}";
  return out;
}

/// Extract the unsigned integer value of `"key":<digits>` in `line`.
std::optional<std::size_t> uint_field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::size_t value = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::size_t>(line[i] - '0');
  }
  return value;
}

/// Extract the string value of `"key":"<text>"` in `line`.  Backend
/// names are plain identifiers, so no unescaping is needed.
std::optional<std::string> string_field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::size_t start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(line.substr(start, end - start));
}

/// True if `line` has the shape of a complete record: starts as one and
/// its braces balance back to zero exactly at the final character
/// (tracked through JSON strings, so braces inside the escaped
/// `experiment` echo cannot fool it).  A prefix cut anywhere by a
/// mid-write kill fails this -- including a cut landing right on an
/// *internal* '}' (a bare line.back() == '}' check would accept that
/// truncation and resume would keep a corrupt record forever).
bool looks_complete(std::string_view line) {
  if (!line.starts_with("{\"cell\":") || !uint_field(line, "of").has_value() ||
      !string_field(line, "backend").has_value()) {
    return false;
  }
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++depth;
    else if (c == '}') {
      --depth;
      if (depth == 0) return i == line.size() - 1;  // closed: must be the last char
      if (depth < 0) return false;
    }
  }
  return false;
}

}  // namespace

std::string cell_experiment_text(const Grid& grid, std::size_t index) {
  // The replayable echo: the cell spec with the derived seed, stride
  // and backend applied, exactly what batch_job runs.
  const Cell c = cell(grid, index);
  const exec::BatchJob job = batch_job(grid, c);
  ExperimentSpec echo = c.spec;
  echo.config.seed = job.config.seed;
  echo.seed_stride = job.seed_stride;
  echo.replicas = job.replicas;
  echo.backend = job.backend;
  return serialize_experiment_spec(echo);
}

std::size_t grid_index_of(const Grid& grid, const RecordKey& key) {
  if (key.cell >= grid.cells()) {
    throw std::invalid_argument("record for cell " + std::to_string(key.cell) +
                                " is out of range (grid has " + std::to_string(grid.cells()) +
                                " cells)");
  }
  if (key.backend != grid.backend) {
    throw std::invalid_argument("record backend '" + key.backend +
                                "' does not match this grid's backend '" + grid.backend + "'");
  }
  return key.cell;
}

RecordRenderer::RecordRenderer(const Grid& grid)
    : of_fragment_(",\"of\":" + std::to_string(grid.cells())) {}

std::string RecordRenderer::render(const Cell& cell, const exec::BatchJob& job,
                                   const exec::BatchResult& result) const {
  std::string out = "{\"cell\":" + std::to_string(cell.index);
  out += of_fragment_;
  out += ",\"backend\":\"" + json_escape(job.backend) + '"';
  out += ",\"replicas\":" + std::to_string(job.replicas);
  out += ",\"sweep\":{";
  bool first = true;
  for (const auto& [key, value] : cell.assignment) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(key) + "\":\"" + json_escape(value) + '"';
  }
  out += "},\"seed\":" + std::to_string(job.config.seed);
  out += ",\"seed_stride\":" + std::to_string(job.seed_stride);
  // The replayable echo, from the parsed cell and derived job already
  // in hand (what cell_experiment_text recomputes from scratch).
  ExperimentSpec echo = cell.spec;
  echo.config.seed = job.config.seed;
  echo.seed_stride = job.seed_stride;
  echo.replicas = job.replicas;
  echo.backend = job.backend;
  out += ",\"experiment\":\"" + json_escape(serialize_experiment_spec(echo)) + '"';
  out += ",\"makespan\":" + summary_json(result.makespan);
  out += ",\"avg_wasted_time\":" + summary_json(result.avg_wasted_time);
  out += ",\"speedup\":" + summary_json(result.speedup);
  out += ",\"chunks\":" + summary_json(result.chunks);
  if (job.keep_values) {
    out += ",\"avg_wasted_time_series\":[";
    for (std::size_t r = 0; r < result.wasted_values.size(); ++r) {
      if (r > 0) out += ',';
      out += json_number(result.wasted_values[r]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::optional<std::string> record_backend(std::string_view line) {
  if (!looks_complete(line)) return std::nullopt;
  return string_field(line, "backend");
}

std::optional<RecordKey> record_key(std::string_view line) {
  if (!looks_complete(line)) return std::nullopt;
  const std::optional<std::size_t> cell = uint_field(line, "cell");
  std::optional<std::string> backend = string_field(line, "backend");
  if (!cell || !backend) return std::nullopt;
  return RecordKey{*cell, *std::move(backend)};
}

std::optional<std::size_t> record_grid_size(std::string_view line) {
  if (!looks_complete(line)) return std::nullopt;
  return uint_field(line, "of");
}

std::optional<std::string> record_experiment(std::string_view line) {
  if (!looks_complete(line)) return std::nullopt;
  const std::string needle = "\"experiment\":\"";
  const auto start = line.find(needle);
  if (start == std::string_view::npos) return std::nullopt;
  std::string out;
  bool escaped = false;
  for (std::size_t i = start + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (!escaped) {
      if (c == '\\') escaped = true;
      else if (c == '"') return out;
      else out += c;
      continue;
    }
    escaped = false;
    switch (c) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // Only ASCII control escapes are ever emitted; decode the low
        // byte, and treat anything non-hex as a malformed record
        // (this function must return nullopt, never throw).
        if (i + 4 >= line.size()) return std::nullopt;
        unsigned value = 0;
        for (std::size_t d = 1; d <= 4; ++d) {
          const char h = line[i + d];
          if (h >= '0' && h <= '9') value = value * 16 + static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') value = value * 16 + static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') value = value * 16 + static_cast<unsigned>(h - 'A' + 10);
          else return std::nullopt;
        }
        out += static_cast<char>(value & 0xff);
        i += 4;
        break;
      }
      default: out += c;  // '\\', '"', '/'
    }
  }
  return std::nullopt;  // unterminated string
}

std::optional<double> record_summary_field(std::string_view line, std::string_view summary,
                                           std::string_view field) {
  if (!looks_complete(line)) return std::nullopt;
  const std::string object = "\"" + std::string(summary) + "\":{";
  const auto open = line.find(object);
  if (open == std::string_view::npos) return std::nullopt;
  const std::size_t begin = open + object.size();
  const std::string_view body = line.substr(begin, line.find('}', begin) - begin);
  const std::string key = "\"" + std::string(field) + "\":";
  const auto pos = body.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view value = body.substr(pos + key.size());
  value = value.substr(0, value.find(','));
  // json_number quotes the non-finite values ("nan", "inf", "-inf").
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  double out = 0.0;
  const auto [end, error] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (error != std::errc{} || end != value.data() + value.size()) return std::nullopt;
  return out;
}

std::optional<std::vector<double>> record_series(std::string_view line) {
  if (!looks_complete(line)) return std::nullopt;
  constexpr std::string_view kOpen = "\"avg_wasted_time_series\":[";
  const auto open = line.find(kOpen);
  if (open == std::string_view::npos) return std::nullopt;
  const std::size_t begin = open + kOpen.size();
  const auto close = line.find(']', begin);
  if (close == std::string_view::npos) return std::nullopt;
  std::vector<double> values;
  bool malformed = false;
  support::for_each_piece(line.substr(begin, close - begin), ',', [&](std::string_view value) {
    // json_number quotes the non-finite values ("nan", "inf", "-inf").
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    double out = 0.0;
    const auto [end, error] = std::from_chars(value.data(), value.data() + value.size(), out);
    malformed |= error != std::errc{} || end != value.data() + value.size();
    values.push_back(out);
  });
  if (malformed) return std::nullopt;
  return values;
}

void validate_records_for_grid(const Grid& grid, const std::vector<std::string>& lines) {
  const std::size_t total = grid.cells();
  for (const std::string& line : lines) {
    const std::optional<RecordKey> key = record_key(line);
    const std::optional<std::size_t> of = record_grid_size(line);
    if (!key || !of) throw std::invalid_argument("resume: malformed record line");
    if (*of != total) {
      throw std::invalid_argument("resume: record for cell " + std::to_string(key->cell) +
                                  " of a " + std::to_string(*of) +
                                  "-cell grid does not belong to this spec (" +
                                  std::to_string(total) + " cells)");
    }
    std::size_t index = 0;
    try {
      index = grid_index_of(grid, *key);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("resume: ") + e.what());
    }
    const std::optional<std::string> echo = record_experiment(line);
    if (!echo || *echo != cell_experiment_text(grid, index)) {
      throw std::invalid_argument(
          "resume: the record for cell " + std::to_string(key->cell) + " (backend " +
          key->backend +
          ") was produced by a different experiment spec; refusing to mix results");
    }
  }
}

ScanResult scan_records(std::istream& in) {
  ScanResult out;
  std::string line;
  std::size_t line_no = 0;
  std::optional<std::size_t> pending_bad_line;  // only fatal if not the last line
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (pending_bad_line) {
      throw std::invalid_argument("sweep output line " + std::to_string(*pending_bad_line) +
                                  ": malformed record in the middle of the file (not a sweep "
                                  "output, or corrupted)");
    }
    const std::optional<RecordKey> key = record_key(line);
    if (!key) {
      pending_bad_line = line_no;
      continue;
    }
    // A structurally complete record whose `experiment` echo does not
    // re-parse is corruption, not a kill signature (a kill truncates,
    // it cannot rewrite the middle of a line) -- reject it loudly even
    // at the tail, never silently skip and recompute over it.
    const std::optional<std::string> echo = record_experiment(line);
    if (!echo) {
      throw std::invalid_argument("sweep output line " + std::to_string(line_no) +
                                  ": record has no experiment echo (not a sweep output, or "
                                  "corrupted)");
    }
    try {
      (void)parse_experiment_spec(*echo);
    } catch (const std::exception& e) {
      throw std::invalid_argument("sweep output line " + std::to_string(line_no) +
                                  ": experiment echo does not re-parse (corrupted record): " +
                                  e.what());
    }
    if (const auto [it, inserted] = out.done.insert(*key); !inserted) {
      // A duplicate comes from a rewrite race or a cell recomputed
      // into a coordinator's journal; records are deterministic, so
      // byte-identical duplicates are tolerated.
      const auto existing = std::find_if(out.lines.begin(), out.lines.end(), [&](const auto& l) {
        return record_key(l) == key;
      });
      if (existing == out.lines.end() || *existing != line) {
        throw std::invalid_argument("sweep output line " + std::to_string(line_no) +
                                    ": conflicting duplicate record for cell " +
                                    std::to_string(key->cell) + " (backend " + key->backend +
                                    ")");
      }
      continue;
    }
    out.lines.push_back(line);
  }
  // A malformed *final* line is the expected signature of a kill
  // mid-write; drop it and let the sweep recompute that cell.
  out.dropped_partial_tail = pending_bad_line.has_value();
  return out;
}

std::vector<std::string> merge_records(const std::vector<std::vector<std::string>>& shards) {
  std::map<RecordKey, std::string> by_cell;
  std::optional<std::size_t> grid_size;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const std::string& line : shards[s]) {
      const std::optional<RecordKey> key = record_key(line);
      if (!key) {
        throw std::invalid_argument("merge: shard " + std::to_string(s) +
                                    " contains a malformed record line");
      }
      const std::optional<std::size_t> of = uint_field(line, "of");
      if (grid_size && of != grid_size) {
        throw std::invalid_argument(
            "merge: shard " + std::to_string(s) + " is from a different grid (" +
            std::to_string(*of) + " cells vs " + std::to_string(*grid_size) + ")");
      }
      grid_size = of;
      if (const auto it = by_cell.find(*key); it != by_cell.end()) {
        if (it->second != line) {
          throw std::invalid_argument("merge: conflicting records for cell " +
                                      std::to_string(key->cell) + " (backend " + key->backend +
                                      ")");
        }
        continue;
      }
      by_cell.emplace(*key, line);
    }
  }
  std::vector<std::string> merged;
  merged.reserve(by_cell.size());
  for (auto& [key, line] : by_cell) merged.push_back(std::move(line));
  return merged;
}

}  // namespace sweep
