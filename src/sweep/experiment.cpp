#include "sweep/experiment.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "exec/backend.hpp"
#include "support/table.hpp"
#include "support/text.hpp"
#include "workload/task_times.hpp"

namespace sweep {
namespace {

/// Where a parse error happened: the 1-based line number and the raw
/// line text, so the message names the offending line verbatim (a
/// reference without `quoted` names the line by number only).
struct LineRef {
  std::size_t no = 0;
  std::string_view text;
  bool quoted = true;
};

[[noreturn]] void parse_error(LineRef line, const std::string& message) {
  std::string where = "experiment line " + std::to_string(line.no);
  if (line.quoted) {
    where += " ('";
    where += line.text;
    where += "')";
  }
  throw std::invalid_argument(where + ": " + message);
}

double to_double(std::string_view v, LineRef line) {
  try {
    const std::string text(v);
    std::size_t pos = 0;
    const double out = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("");
    return out;
  } catch (const std::out_of_range&) {
    // Distinct from a malformed number: "1e999" is well-formed but not
    // representable, and must not silently clamp or crash the parse.
    parse_error(line, "number out of range of double: " + std::string(v));
  } catch (const std::exception&) {
    parse_error(line, "bad number: " + std::string(v));
  }
}

/// A finite, non-negative double (latency, h, mu, sigma): NaN, inf and
/// negative values would only surface as a NaN or negative result.
double to_finite_nonnegative(std::string_view key, std::string_view v, LineRef line) {
  const double out = to_double(v, line);
  if (!(out >= 0.0) || !std::isfinite(out)) {
    parse_error(line, std::string(key) + " must be finite and >= 0");
  }
  return out;
}

bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }

std::size_t to_size(std::string_view v, LineRef line) {
  const double d = to_double(v, line);
  // 2^64 as a double: the range check comes before the cast, because
  // casting NaN, inf or anything >= 2^64 to size_t is undefined.
  constexpr double kLimit = 18446744073709551616.0;
  if (!(d >= 0.0 && d < kLimit) || d != static_cast<double>(static_cast<std::size_t>(d))) {
    parse_error(line, "expected a non-negative integer: " + std::string(v));
  }
  return static_cast<std::size_t>(d);
}

/// Exact 64-bit unsigned parse for seeds: the double path of to_size
/// would silently round values above 2^53, and grid records carry full
/// 64-bit derived seeds that must replay bit-exactly.  Falls back to
/// the double path for scientific notation ("1e6"), which is exact in
/// the range it accepts.
std::uint64_t to_uint64(std::string_view v, LineRef line) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec == std::errc{} && ptr == v.data() + v.size()) return out;
  if (ec == std::errc::result_out_of_range) {
    parse_error(line, "number out of range of uint64: " + std::string(v));
  }
  const double d = to_double(v, line);
  if (!(d >= 0.0 && d <= 9007199254740992.0 /* 2^53 */) ||
      d != static_cast<double>(static_cast<std::uint64_t>(d))) {
    parse_error(line, "expected a non-negative integer: " + std::string(v));
  }
  return static_cast<std::uint64_t>(d);
}

bool to_bool(std::string_view v, LineRef line) {
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  parse_error(line, "expected a boolean: " + std::string(v));
}

/// Comma-separated doubles, each of which must pass `valid`; `rule`
/// names the limit a failing entry breaks.
template <typename Valid>
std::vector<double> to_double_list(std::string_view v, LineRef line, Valid valid,
                                   const char* rule) {
  std::vector<double> out;
  support::for_each_piece(v, ',', [&](std::string_view item) {
    if (item.empty()) parse_error(line, "empty list item in: " + std::string(v));
    out.push_back(to_double(item, line));
    if (!valid(out.back())) parse_error(line, rule);
  });
  if (out.empty()) parse_error(line, "expected a comma-separated list, got: " + std::string(v));
  return out;
}

/// "t0:s0,t1:s1,..." -> SpeedProfile.
simx::SpeedProfile to_profile(std::string_view v, LineRef line) {
  simx::SpeedProfile profile;
  support::for_each_piece(v, ',', [&](std::string_view item) {
    const auto colon = item.find(':');
    if (colon == std::string_view::npos) {
      parse_error(line, "profile segment must be <time>:<flops>, got: " + std::string(item));
    }
    profile.time_points.push_back(to_double(item.substr(0, colon), line));
    profile.speeds.push_back(to_double(item.substr(colon + 1), line));
  });
  try {
    profile.validate();
  } catch (const std::exception& e) {
    parse_error(line, e.what());
  }
  return profile;
}

}  // namespace

ExperimentSpec parse_experiment_spec(std::string_view text) {
  ExperimentSpec spec;
  mw::Config& cfg = spec.config;
  cfg.workers = 0;  // force an explicit 'workers' key (Config defaults to 1)
  bool have_mu = false;
  bool have_sigma = false;
  std::map<std::size_t, simx::SpeedProfile> profiles;  // worker index -> profile
  std::map<std::size_t, std::size_t> profile_lines;    // worker index -> line number
  LineRef speeds_line;  // the 'speeds' line, checked against host_speed at the end
  LineRef overhead_line;  // the 'overhead' line, checked against the backend at the end

  std::size_t line_no = 0;
  support::for_each_piece(text, '\n', [&](std::string_view raw) {
    ++line_no;
    const LineRef line{line_no, raw};
    support::LineTokens tokens(raw);
    const std::string_view key = tokens.next();
    if (key.empty()) return;
    if (key == "sweep") {
      // Checked before the trailing-token guard: sweep lines carry
      // several values and would otherwise die with a confusing
      // "unexpected trailing token".
      parse_error(line,
                  "'sweep' is a grid directive, not an experiment key; "
                  "run this file through dls_sweep (sweep::parse_grid)");
    }
    const std::string_view value = tokens.next();
    if (value.empty()) parse_error(line, "key '" + std::string(key) + "' is missing a value");
    if (const std::string_view extra = tokens.next(); !extra.empty()) {
      parse_error(line, "unexpected trailing token: " + std::string(extra));
    }

    if (key == "technique") {
      try {
        cfg.technique = dls::kind_from_string(std::string(value));
      } catch (const std::exception& e) {
        parse_error(line, e.what());
      }
    } else if (key == "tasks") {
      cfg.tasks = to_size(value, line);
      if (cfg.tasks == 0) parse_error(line, "tasks must be >= 1");
    } else if (key == "workers") {
      cfg.workers = to_size(value, line);
      if (cfg.workers == 0) parse_error(line, "workers must be >= 1");
    } else if (key == "workload") {
      try {
        cfg.workload = workload::from_spec(value);
      } catch (const std::exception& e) {
        parse_error(line, e.what());
      }
    } else if (key == "h") {
      cfg.params.h = to_finite_nonnegative(key, value, line);
    } else if (key == "mu") {
      cfg.params.mu = to_finite_nonnegative(key, value, line);
      have_mu = true;
    } else if (key == "sigma") {
      cfg.params.sigma = to_finite_nonnegative(key, value, line);
      have_sigma = true;
    } else if (key == "timesteps") {
      cfg.timesteps = to_size(value, line);
      if (cfg.timesteps == 0) parse_error(line, "timesteps must be >= 1");
    } else if (key == "seed") {
      cfg.seed = to_uint64(value, line);
    } else if (key == "overhead") {
      if (value == "analytic") cfg.overhead_mode = mw::OverheadMode::kAnalytic;
      else if (value == "simulated") cfg.overhead_mode = mw::OverheadMode::kSimulated;
      else if (value == "inline") cfg.overhead_mode = mw::OverheadMode::kInline;
      else parse_error(line, "overhead must be 'analytic', 'simulated' or 'inline'");
      overhead_line = line;
    } else if (key == "latency") {
      cfg.latency = to_finite_nonnegative(key, value, line);
    } else if (key == "bandwidth") {
      // +inf is legal: transfers then cost only the latency.
      cfg.bandwidth = to_double(value, line);
      if (!(cfg.bandwidth > 0.0)) parse_error(line, "bandwidth must be > 0");
    } else if (key == "css_chunk") {
      cfg.params.css_chunk = to_size(value, line);
    } else if (key == "gss_min") {
      cfg.params.gss_min_chunk = to_size(value, line);
    } else if (key == "rand48") {
      cfg.use_rand48 = to_bool(value, line);
    } else if (key == "host_speed") {
      cfg.host_speed = to_double(value, line);
      if (!(cfg.host_speed > 0.0) || !std::isfinite(cfg.host_speed)) {
        parse_error(line, "host_speed must be finite and > 0");
      }
    } else if (key == "request_bytes") {
      cfg.request_bytes = to_size(value, line);
    } else if (key == "reply_bytes") {
      cfg.reply_bytes = to_size(value, line);
    } else if (key == "speeds") {
      cfg.worker_speed_factors =
          to_double_list(value, line, positive_finite, "speeds entries must be finite and > 0");
      speeds_line = line;
    } else if (key == "weights") {
      cfg.params.weights =
          to_double_list(value, line, positive_finite, "weights entries must be finite and > 0");
    } else if (key == "failures") {
      // +inf is legal: that worker never fails.
      cfg.worker_failure_times = to_double_list(
          value, line, [](double t) { return t >= 0.0; }, "failures entries must be >= 0");
    } else if (key.starts_with("profile")) {
      const std::string_view index_text = key.substr(7);
      std::size_t index = 0;
      const auto [ptr, ec] =
          std::from_chars(index_text.data(), index_text.data() + index_text.size(), index);
      if (ec != std::errc{} || ptr != index_text.data() + index_text.size()) {
        parse_error(line, "profile key must be profile<worker-index>, got: " + std::string(key));
      }
      profiles[index] = to_profile(value, line);
      profile_lines[index] = line_no;
    } else if (key == "replicas") {
      spec.replicas = to_size(value, line);
      if (spec.replicas == 0) parse_error(line, "replicas must be >= 1");
    } else if (key == "seed_stride") {
      spec.seed_stride = to_uint64(value, line);
      if (spec.seed_stride == 0) parse_error(line, "seed_stride must be >= 1");
    } else if (key == "threads") {
      const std::size_t threads = to_size(value, line);
      if (threads > std::numeric_limits<unsigned>::max()) parse_error(line, "threads too large");
      spec.threads = static_cast<unsigned>(threads);
    } else if (key == "backend") {
      if (!exec::is_backend_name(value)) parse_error(line, exec::unknown_backend_message(value));
      spec.backend = value;
    } else if (key == "series") {
      spec.series = to_bool(value, line);
    } else {
      parse_error(line, "unknown key: " + std::string(key));
    }
  });

  if (cfg.overhead_mode == mw::OverheadMode::kInline && spec.backend != "hagerup") {
    parse_error(overhead_line, "overhead inline needs backend hagerup (the direct simulator "
                               "charges h on the worker's timeline; backend is " +
                                   spec.backend + ")");
  }
  if (!cfg.workload) throw std::invalid_argument("experiment: missing 'workload'");
  if (cfg.tasks == 0) throw std::invalid_argument("experiment: missing 'tasks'");
  if (cfg.workers == 0) throw std::invalid_argument("experiment: missing 'workers'");
  if (!have_mu) cfg.params.mu = cfg.workload->mean();
  if (!have_sigma) cfg.params.sigma = cfg.workload->stddev();
  if (!cfg.worker_speed_factors.empty() && cfg.worker_speed_factors.size() != cfg.workers) {
    throw std::invalid_argument("experiment: 'speeds' needs one entry per worker (got " +
                                std::to_string(cfg.worker_speed_factors.size()) + ", workers " +
                                std::to_string(cfg.workers) + ")");
  }
  if (!cfg.worker_failure_times.empty() && cfg.worker_failure_times.size() != cfg.workers) {
    throw std::invalid_argument("experiment: 'failures' needs one entry per worker (got " +
                                std::to_string(cfg.worker_failure_times.size()) + ", workers " +
                                std::to_string(cfg.workers) + ")");
  }
  for (const double factor : cfg.worker_speed_factors) {
    if (!positive_finite(cfg.host_speed * factor)) {
      parse_error(speeds_line,
                  "host_speed * speeds entry " + support::fmt_shortest(factor) +
                      " must be finite and > 0");
    }
  }
  if (!cfg.params.weights.empty() && cfg.params.weights.size() != cfg.workers) {
    throw std::invalid_argument("experiment: 'weights' needs one entry per worker (got " +
                                std::to_string(cfg.params.weights.size()) + ", workers " +
                                std::to_string(cfg.workers) + ")");
  }
  if (!profiles.empty()) {
    if (profiles.rbegin()->first >= cfg.workers) {
      parse_error(LineRef{profile_lines.at(profiles.rbegin()->first), {}, false},
                  "profile index " + std::to_string(profiles.rbegin()->first) +
                                    " out of range (workers " + std::to_string(cfg.workers) + ")");
    }
    cfg.worker_speed_profiles.resize(cfg.workers);
    for (std::size_t i = 0; i < cfg.workers; ++i) {
      if (auto it = profiles.find(i); it != profiles.end()) {
        cfg.worker_speed_profiles[i] = std::move(it->second);
      } else {
        // Workers without a profile line keep their constant speed.
        const double factor =
            cfg.worker_speed_factors.empty() ? 1.0 : cfg.worker_speed_factors[i];
        cfg.worker_speed_profiles[i] =
            simx::SpeedProfile{{0.0}, {cfg.host_speed * factor}};
      }
    }
  }
  return spec;
}

std::string serialize_experiment_spec(const ExperimentSpec& spec) {
  const mw::Config& cfg = spec.config;
  if (!cfg.workload) throw std::invalid_argument("serialize: spec has no workload");
  const std::string workload_spec = cfg.workload->spec();
  {
    // A generator with no from_spec form (trace) would produce a file
    // that cannot be parsed back; refuse instead of emitting it.
    const auto roundtrip = workload::from_spec(workload_spec);  // throws if not expressible
    (void)roundtrip;
  }

  std::ostringstream out;
  auto emit = [&](const char* key, const std::string& value) { out << key << ' ' << value << '\n'; };
  emit("technique", dls::to_string(cfg.technique));
  emit("tasks", std::to_string(cfg.tasks));
  emit("workers", std::to_string(cfg.workers));
  emit("workload", workload_spec);
  if (cfg.params.h != 0.0) emit("h", support::fmt_shortest(cfg.params.h));
  if (cfg.params.mu != cfg.workload->mean()) emit("mu", support::fmt_shortest(cfg.params.mu));
  if (cfg.params.sigma != cfg.workload->stddev()) emit("sigma", support::fmt_shortest(cfg.params.sigma));
  if (cfg.timesteps != 1) emit("timesteps", std::to_string(cfg.timesteps));
  emit("seed", std::to_string(cfg.seed));
  if (cfg.overhead_mode == mw::OverheadMode::kSimulated) emit("overhead", "simulated");
  if (cfg.overhead_mode == mw::OverheadMode::kInline) emit("overhead", "inline");
  const mw::Config defaults;
  if (cfg.latency != defaults.latency) emit("latency", support::fmt_shortest(cfg.latency));
  if (cfg.bandwidth != defaults.bandwidth) emit("bandwidth", support::fmt_shortest(cfg.bandwidth));
  if (cfg.params.css_chunk != 0) emit("css_chunk", std::to_string(cfg.params.css_chunk));
  if (cfg.params.gss_min_chunk != 1) emit("gss_min", std::to_string(cfg.params.gss_min_chunk));
  if (cfg.use_rand48) emit("rand48", "true");
  if (cfg.host_speed != defaults.host_speed) emit("host_speed", support::fmt_shortest(cfg.host_speed));
  if (cfg.request_bytes != defaults.request_bytes) {
    emit("request_bytes", std::to_string(cfg.request_bytes));
  }
  if (cfg.reply_bytes != defaults.reply_bytes) {
    emit("reply_bytes", std::to_string(cfg.reply_bytes));
  }
  auto emit_list = [&](const char* key, const std::vector<double>& values) {
    std::string joined;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) joined += ',';
      joined += support::fmt_shortest(values[i]);
    }
    emit(key, joined);
  };
  if (!cfg.worker_speed_factors.empty()) emit_list("speeds", cfg.worker_speed_factors);
  if (!cfg.params.weights.empty()) emit_list("weights", cfg.params.weights);
  if (!cfg.worker_failure_times.empty()) emit_list("failures", cfg.worker_failure_times);
  for (std::size_t i = 0; i < cfg.worker_speed_profiles.size(); ++i) {
    const simx::SpeedProfile& profile = cfg.worker_speed_profiles[i];
    std::string joined;
    for (std::size_t s = 0; s < profile.time_points.size(); ++s) {
      if (s > 0) joined += ',';
      joined += support::fmt_shortest(profile.time_points[s]) + ':' + support::fmt_shortest(profile.speeds[s]);
    }
    emit(("profile" + std::to_string(i)).c_str(), joined);
  }
  if (spec.replicas != 1) emit("replicas", std::to_string(spec.replicas));
  if (spec.seed_stride != 1) emit("seed_stride", std::to_string(spec.seed_stride));
  if (spec.threads != 0) emit("threads", std::to_string(spec.threads));
  if (spec.backend != "mw") emit("backend", spec.backend);
  if (spec.series) emit("series", "true");
  return out.str();
}

}  // namespace sweep
