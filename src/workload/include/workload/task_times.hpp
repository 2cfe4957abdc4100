#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "workload/random_source.hpp"

namespace workload {

/// Generator of task (loop-iteration) execution times, the central
/// application input of a DLS simulation (paper Figure 2: "Task
/// Execution Times" + "Distribution").
///
/// Implementations cover both kinds of workloads used by the reproduced
/// publications: position-dependent deterministic patterns (constant,
/// increasing, decreasing — TSS publication) and i.i.d. draws from a
/// probability distribution (exponential — BOLD publication; plus the
/// wider family used in the robustness/resilience follow-up studies).
class TaskTimeGenerator {
 public:
  virtual ~TaskTimeGenerator() = default;
  TaskTimeGenerator() = default;
  TaskTimeGenerator(const TaskTimeGenerator&) = delete;
  TaskTimeGenerator& operator=(const TaskTimeGenerator&) = delete;

  /// Execution time (seconds) of task `index` out of `n`.
  [[nodiscard]] virtual double sample(std::size_t index, std::size_t n, RandomSource& rng) const = 0;

  /// Nominal mean of the task times (the µ of paper Table I).
  [[nodiscard]] virtual double mean() const = 0;
  /// Nominal standard deviation (the σ of paper Table I; the paper's
  /// Table I calls it "variance" but uses it in units of time).
  [[nodiscard]] virtual double stddev() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Canonical `from_spec` text that reconstructs this generator, e.g.
  /// "exponential:1".  Numbers use shortest round-trip formatting, so
  /// from_spec(spec()) samples identically.  Generators with no spec
  /// form (trace) fall back to name(), which from_spec rejects.
  [[nodiscard]] virtual std::string spec() const { return name(); }

  /// Materialize all n task times (the per-run workload vector).
  [[nodiscard]] std::vector<double> generate(std::size_t n, RandomSource& rng) const;

  /// Fill `out` (resized to n) with the same values generate() would
  /// produce, reusing out's capacity.  This is the simulation hot path:
  /// a time-stepping run regenerates the workload every step, and the
  /// master must not allocate for it in steady state.
  void generate_into(std::vector<double>& out, std::size_t n, RandomSource& rng) const;

  /// Fill `out` in place with the out.size() values generate() would
  /// produce (the mw master draws them straight into its prefix-sum
  /// index).
  void generate_into(std::span<double> out, RandomSource& rng) const {
    if (!out.empty()) do_generate_into(out.data(), out.size(), rng);
  }

 protected:
  /// Bulk-fill hook: out[i] = sample(i, n, rng) for i in [0, n).
  /// Hot generators override it: the one-draw-per-task ones draw the
  /// buffer with RandomSource::fill_uniform01 and map it in a second
  /// loop.  The values must be bit-identical to per-sample generation.
  virtual void do_generate_into(double* out, std::size_t n, RandomSource& rng) const;
};

/// Every task takes exactly `value` seconds (TSS experiments 1 and 2).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> constant(double value);

/// Uniform in [lo, hi).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> uniform(double lo, double hi);

/// Exponential with mean mu (BOLD experiments: mu = 1 s, sigma = 1 s).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> exponential(double mu);

/// Normal(mu, sigma) truncated below at `floor` (task times must stay
/// positive; the floor is re-sampled, not clamped, to avoid an atom).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> normal(double mu, double sigma,
                                                        double floor = 1e-9);

/// Gamma with shape k and scale theta (mean k*theta).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> gamma(double shape, double scale);

/// Lognormal such that the *resulting* distribution has the given mean
/// and standard deviation.
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> lognormal(double mean, double stddev);

/// Weibull with shape k and scale lambda.
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> weibull(double shape, double scale);

/// Mixture: with probability `weight_hi` a task costs `hi`, else `lo`
/// (models the bimodal kernels of irregular scientific codes).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> bimodal(double lo, double hi, double weight_hi);

/// Deterministic linear ramp from `first` (task 0) to `last` (task n-1):
/// the TSS publication's "increasing"/"decreasing" workloads.
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> linear_ramp(double first, double last);

/// Replay a recorded trace of task times (paper Section III: "a trace
/// file or similar information describing the behavior of the measured
/// application").  Index i uses trace[i % trace.size()].  The spec
/// grammar has no trace form (a record must replay from its text), so
/// this is the only way in: a library caller with measured task times.
// dls-lint: allow(callerless-api)
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> trace(std::vector<double> values);

/// Build a generator from a textual spec, e.g. "constant:0.00011",
/// "exponential:1.0", "uniform:0.5,1.5", "normal:1.0,0.2",
/// "gamma:2.0,0.5", "ramp:2.0,0.1", "bimodal:0.1,1.0,0.25".
/// Throws std::invalid_argument on malformed specs.
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> from_spec(std::string_view spec);

}  // namespace workload
