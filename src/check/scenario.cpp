#include "check/scenario.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exec/backend.hpp"
#include "sweep/experiment.hpp"
#include "workload/task_times.hpp"

namespace check {
namespace {

/// splitmix64: small, fast, and platform-independent -- scenario
/// generation must not depend on std::<distribution> implementation
/// details, or the same seed would mean different scenarios per
/// standard library.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t index)
      : state_(seed ^ (0x9e3779b97f4a7c15ull * (index + 1))) {
    next();
    next();
  }

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); modulo bias is irrelevant for space coverage.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  std::size_t in(std::size_t lo, std::size_t hi) { return lo + below(hi - lo + 1); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  bool chance(double p) { return unit() < p; }

  template <typename T>
  const T& pick(const std::vector<T>& options) {
    return options[below(options.size())];
  }

 private:
  std::uint64_t state_;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

bool is_timing_sensitive(dls::Kind kind) {
  switch (kind) {
    case dls::Kind::kBOLD:
    case dls::Kind::kAWF:
    case dls::Kind::kAWFB:
    case dls::Kind::kAWFC:
    case dls::Kind::kAWFD:
    case dls::Kind::kAWFE:
    case dls::Kind::kAF:
      return true;
    default:
      return false;
  }
}

/// validate() is const and reads no per-run state, so one instance
/// serves every thread.
const exec::Backend& hagerup_backend() {
  static const std::unique_ptr<exec::Backend> backend = exec::make_backend("hagerup");
  return *backend;
}

}  // namespace

bool Scenario::hagerup_comparable() const {
  // One rule for what hagerup can run: its backend's own validate.
  try {
    hagerup_backend().validate(config);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

bool Scenario::hagerup_identical() const {
  return hagerup_comparable() && !timing_sensitive && config.params.weights.empty();
}

void classify(Scenario& scenario) {
  const mw::Config& cfg = scenario.config;
  // Delays are sum(latency) + bytes/bandwidth per message; they are
  // exactly zero only for zero latency and infinite bandwidth.
  scenario.null_network =
      cfg.latency == 0.0 && std::isinf(cfg.bandwidth) && cfg.bandwidth > 0.0;
  scenario.heterogeneous =
      !cfg.worker_speed_factors.empty() || !cfg.worker_speed_profiles.empty();
  scenario.has_failures = false;
  for (double t : cfg.worker_failure_times) {
    if (t < kInf) scenario.has_failures = true;
  }
  scenario.timing_sensitive = is_timing_sensitive(cfg.technique);
}

Scenario generate_scenario(std::uint64_t seed, std::size_t index,
                           const ScenarioOptions& options) {
  Rng rng(seed, index);
  Scenario scenario;
  mw::Config& cfg = scenario.config;

  cfg.technique = rng.pick(dls::all_kinds());
  cfg.workers = rng.in(1, options.max_workers);
  // Log-uniform task counts: small-n edge cases are as likely as big runs.
  {
    const double lo = std::log2(static_cast<double>(options.min_tasks));
    const double hi = std::log2(static_cast<double>(options.max_tasks));
    cfg.tasks = static_cast<std::size_t>(std::llround(std::exp2(lo + (hi - lo) * rng.unit())));
    if (cfg.tasks < 1) cfg.tasks = 1;
  }
  cfg.timesteps = rng.chance(0.25) && options.max_timesteps >= 2
                      ? rng.in(2, options.max_timesteps)
                      : 1;

  static const std::vector<std::string> kWorkloads = {
      "constant:1",       "constant:0.002",    "uniform:0.5,1.5", "exponential:1",
      "normal:1,0.25",    "gamma:2,0.5",       "ramp:2,0.1",      "ramp:0.1,2",
      "bimodal:0.1,1,0.25", "lognormal:1,0.5", "weibull:1.5,1",
  };
  cfg.workload = workload::from_spec(rng.pick(kWorkloads));
  cfg.params.mu = cfg.workload->mean();
  cfg.params.sigma = cfg.workload->stddev();

  static const std::vector<double> kOverheads = {0.0, 0.01, 0.5};
  cfg.params.h = rng.pick(kOverheads);
  cfg.overhead_mode =
      rng.chance(0.25) ? mw::OverheadMode::kSimulated : mw::OverheadMode::kAnalytic;

  if (cfg.technique == dls::Kind::kCSS && rng.chance(0.5)) {
    cfg.params.css_chunk = rng.in(1, std::max<std::size_t>(1, cfg.tasks / 2));
  }
  if (cfg.technique == dls::Kind::kGSS && rng.chance(0.5)) {
    cfg.params.gss_min_chunk = rng.in(1, 8);
  }
  if (cfg.technique == dls::Kind::kWF && rng.chance(0.5)) {
    cfg.params.weights.resize(cfg.workers);
    for (double& w : cfg.params.weights) w = 0.25 + 1.75 * rng.unit();
  }

  // Network: exactly-null half the time, otherwise the BOLD near-null
  // defaults (both hagerup-comparable) or a real star network.
  if (rng.chance(0.5)) {
    cfg.latency = 0.0;
    cfg.bandwidth = kInf;
  } else if (rng.chance(0.5)) {
    cfg.latency = 1e-12;
    cfg.bandwidth = 1e21;
  } else {
    static const std::vector<double> kLatencies = {1e-6, 1e-4};
    static const std::vector<double> kBandwidths = {1e8, 1e9};
    cfg.latency = rng.pick(kLatencies);
    cfg.bandwidth = rng.pick(kBandwidths);
  }

  // Heterogeneity: per-worker speed factors, sometimes piecewise
  // perturbation profiles (with zero-speed windows) on top.
  const double share_seconds =
      cfg.params.mu * static_cast<double>(cfg.tasks) / static_cast<double>(cfg.workers);
  if (rng.chance(0.25)) {
    cfg.worker_speed_factors.resize(cfg.workers);
    for (double& f : cfg.worker_speed_factors) f = 0.25 + 1.75 * rng.unit();
  }
  if (rng.chance(0.2)) {
    cfg.worker_speed_profiles.resize(cfg.workers);
    for (std::size_t w = 0; w < cfg.workers; ++w) {
      const double base =
          cfg.host_speed * (cfg.worker_speed_factors.empty() ? 1.0
                                                             : cfg.worker_speed_factors[w]);
      simx::SpeedProfile& profile = cfg.worker_speed_profiles[w];
      profile.time_points = {0.0};
      profile.speeds = {base};
      const std::size_t segments = rng.in(0, 3);
      double t = 0.0;
      for (std::size_t s = 0; s < segments; ++s) {
        t += (0.05 + 0.45 * rng.unit()) * share_seconds;
        profile.time_points.push_back(t);
        // Zero-speed windows model the perturbation studies; the final
        // segment must run, or stranded work could never finish.
        const bool stopped = s + 1 < segments && rng.chance(0.3);
        profile.speeds.push_back(stopped ? 0.0 : cfg.host_speed * (0.25 + 1.75 * rng.unit()));
      }
    }
  }

  // Fail-stop times: a strict minority of workers dies mid-run; at
  // least one survivor is guaranteed (all workers failing is an error
  // by contract).
  if (cfg.workers > 1 && rng.chance(0.2)) {
    cfg.worker_failure_times.assign(cfg.workers, kInf);
    const std::size_t failures = rng.in(1, std::max<std::size_t>(1, (cfg.workers - 1) / 2));
    for (std::size_t k = 0; k < failures; ++k) {
      // Worker 0 always survives; duplicates just re-kill the same worker.
      const std::size_t victim = rng.in(1, cfg.workers - 1);
      cfg.worker_failure_times[victim] = (0.05 + 0.9 * rng.unit()) * share_seconds;
    }
  }

  cfg.seed = rng.next() & 0xffffffffull;  // 32-bit: round-trips the file format exactly
  cfg.use_rand48 = rng.chance(0.5);
  cfg.record_chunk_log = true;

  classify(scenario);
  return scenario;
}

std::string to_experiment_text(const Scenario& scenario) {
  sweep::ExperimentSpec spec;
  spec.config = scenario.config;
  return sweep::serialize_experiment_spec(spec);
}

}  // namespace check
