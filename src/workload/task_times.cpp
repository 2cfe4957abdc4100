#include "workload/task_times.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "support/table.hpp"
#include "support/text.hpp"

namespace workload {

std::vector<double> TaskTimeGenerator::generate(std::size_t n, RandomSource& rng) const {
  std::vector<double> out;
  generate_into(out, n, rng);
  return out;
}

void TaskTimeGenerator::generate_into(std::vector<double>& out, std::size_t n,
                                      RandomSource& rng) const {
  out.resize(n);
  if (n > 0) do_generate_into(out.data(), n, rng);
}

void TaskTimeGenerator::do_generate_into(double* out, std::size_t n, RandomSource& rng) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = sample(i, n, rng);
}

namespace {

void require_positive(double v, const char* what) {
  if (!(v > 0.0)) throw std::invalid_argument(std::string(what) + " must be > 0");
}

class Constant final : public TaskTimeGenerator {
 public:
  explicit Constant(double value) : value_(value) { require_positive(value, "constant value"); }
  double sample(std::size_t, std::size_t, RandomSource&) const override { return value_; }
  void do_generate_into(double* out, std::size_t n, RandomSource&) const override {
    std::fill(out, out + n, value_);
  }
  double mean() const override { return value_; }
  double stddev() const override { return 0.0; }
  std::string name() const override { return "constant(" + std::to_string(value_) + ")"; }
  std::string spec() const override { return "constant:" + support::fmt_shortest(value_); }

 private:
  double value_;
};

/// A generator that spends one uniform draw per task and maps it
/// through `Map` (a small value type with `double operator()(double u)
/// const`).  sample() and the bulk fill apply the same map, so their
/// bits agree by construction.  The bulk fill draws the whole buffer
/// first (one RandomSource dispatch), then maps it in a loop of its
/// own, so the generator's state stays in registers while it draws.
template <typename Map>
class OneDrawPerTask : public TaskTimeGenerator {
 public:
  explicit OneDrawPerTask(Map map) : map_(map) {}
  double sample(std::size_t, std::size_t, RandomSource& rng) const final {
    return map_(rng.uniform01());
  }

 protected:
  void do_generate_into(double* out, std::size_t n, RandomSource& rng) const final {
    rng.fill_uniform01(out, n);
    const Map map = map_;  // a local copy: the stores to out cannot alias it
    for (std::size_t i = 0; i < n; ++i) out[i] = map(out[i]);
  }

  Map map_;
};

struct UniformMap {
  double lo, hi;
  double operator()(double u) const { return lo + (hi - lo) * u; }
};

class Uniform final : public OneDrawPerTask<UniformMap> {
 public:
  Uniform(double lo, double hi) : OneDrawPerTask({lo, hi}) {
    if (!(hi > lo) || !(lo >= 0.0)) throw std::invalid_argument("uniform: need 0 <= lo < hi");
  }
  double mean() const override { return 0.5 * (map_.lo + map_.hi); }
  double stddev() const override { return (map_.hi - map_.lo) / std::sqrt(12.0); }
  std::string name() const override {
    return "uniform(" + std::to_string(map_.lo) + "," + std::to_string(map_.hi) + ")";
  }
  std::string spec() const override {
    return "uniform:" + support::fmt_shortest(map_.lo) + "," + support::fmt_shortest(map_.hi);
  }
};

struct ExponentialMap {
  double mu;
  // Inverse CDF; 1-u in (0,1] so log() never sees zero.
  double operator()(double u) const { return -mu * std::log(1.0 - u); }
};

class Exponential final : public OneDrawPerTask<ExponentialMap> {
 public:
  explicit Exponential(double mu) : OneDrawPerTask({mu}) {
    require_positive(mu, "exponential mean");
  }
  double mean() const override { return map_.mu; }
  double stddev() const override { return map_.mu; }
  std::string name() const override { return "exponential(" + std::to_string(map_.mu) + ")"; }
  std::string spec() const override { return "exponential:" + support::fmt_shortest(map_.mu); }
};

double sample_standard_normal(RandomSource& rng) {
  // Box-Muller; consumes two uniforms per call.  The pair's second
  // value is deliberately not cached: keeping the generator stateless
  // preserves the "same seed, same workload" contract under splitting.
  const double u1 = 1.0 - rng.uniform01();  // (0,1]
  const double u2 = rng.uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

class Normal final : public TaskTimeGenerator {
 public:
  Normal(double mu, double sigma, double floor) : mu_(mu), sigma_(sigma), floor_(floor) {
    require_positive(mu, "normal mean");
    if (sigma < 0.0) throw std::invalid_argument("normal: sigma must be >= 0");
  }
  double sample(std::size_t, std::size_t, RandomSource& rng) const override {
    for (;;) {
      const double v = mu_ + sigma_ * sample_standard_normal(rng);
      if (v >= floor_) return v;
    }
  }
  double mean() const override { return mu_; }
  double stddev() const override { return sigma_; }
  std::string name() const override {
    return "normal(" + std::to_string(mu_) + "," + std::to_string(sigma_) + ")";
  }
  std::string spec() const override {
    return "normal:" + support::fmt_shortest(mu_) + "," + support::fmt_shortest(sigma_);
  }

 private:
  double mu_, sigma_, floor_;
};

class Gamma final : public TaskTimeGenerator {
 public:
  Gamma(double shape, double scale) : shape_(shape), scale_(scale) {
    require_positive(shape, "gamma shape");
    require_positive(scale, "gamma scale");
  }
  double sample(std::size_t i, std::size_t n, RandomSource& rng) const override {
    return scale_ * sample_standard(shape_, i, n, rng);
  }
  double mean() const override { return shape_ * scale_; }
  double stddev() const override { return std::sqrt(shape_) * scale_; }
  std::string name() const override {
    return "gamma(" + std::to_string(shape_) + "," + std::to_string(scale_) + ")";
  }
  std::string spec() const override {
    return "gamma:" + support::fmt_shortest(shape_) + "," + support::fmt_shortest(scale_);
  }

 private:
  // Marsaglia-Tsang squeeze method; shape < 1 boosted via the
  // u^(1/shape) transformation.
  static double sample_standard(double shape, std::size_t i, std::size_t n, RandomSource& rng) {
    if (shape < 1.0) {
      const double u = 1.0 - rng.uniform01();
      return sample_standard(shape + 1.0, i, n, rng) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = sample_standard_normal(rng);
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = 1.0 - rng.uniform01();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
    }
  }

  double shape_, scale_;
};

class Lognormal final : public TaskTimeGenerator {
 public:
  Lognormal(double mean, double stddev) : mean_(mean), stddev_(stddev) {
    require_positive(mean, "lognormal mean");
    require_positive(stddev, "lognormal stddev");
    const double cv2 = (stddev / mean) * (stddev / mean);
    sigma_log_ = std::sqrt(std::log1p(cv2));
    mu_log_ = std::log(mean) - 0.5 * sigma_log_ * sigma_log_;
  }
  double sample(std::size_t, std::size_t, RandomSource& rng) const override {
    return std::exp(mu_log_ + sigma_log_ * sample_standard_normal(rng));
  }
  double mean() const override { return mean_; }
  double stddev() const override { return stddev_; }
  std::string name() const override {
    return "lognormal(" + std::to_string(mean_) + "," + std::to_string(stddev_) + ")";
  }
  std::string spec() const override {
    return "lognormal:" + support::fmt_shortest(mean_) + "," + support::fmt_shortest(stddev_);
  }

 private:
  double mean_, stddev_, mu_log_{}, sigma_log_{};
};

struct WeibullMap {
  double shape, scale;
  double operator()(double draw) const {
    const double u = 1.0 - draw;  // (0,1]
    return scale * std::pow(-std::log(u), 1.0 / shape);
  }
};

class Weibull final : public OneDrawPerTask<WeibullMap> {
 public:
  Weibull(double shape, double scale) : OneDrawPerTask({shape, scale}) {
    require_positive(shape, "weibull shape");
    require_positive(scale, "weibull scale");
    mean_ = scale * std::tgamma(1.0 + 1.0 / shape);
    const double m2 = scale * scale * std::tgamma(1.0 + 2.0 / shape);
    stddev_ = std::sqrt(std::max(0.0, m2 - mean_ * mean_));
  }
  double mean() const override { return mean_; }
  double stddev() const override { return stddev_; }
  std::string name() const override {
    return "weibull(" + std::to_string(map_.shape) + "," + std::to_string(map_.scale) + ")";
  }
  std::string spec() const override {
    return "weibull:" + support::fmt_shortest(map_.shape) + "," +
           support::fmt_shortest(map_.scale);
  }

 private:
  double mean_{}, stddev_{};
};

struct BimodalMap {
  double lo, hi, w;
  double operator()(double u) const { return u < w ? hi : lo; }
};

class Bimodal final : public OneDrawPerTask<BimodalMap> {
 public:
  Bimodal(double lo, double hi, double weight_hi) : OneDrawPerTask({lo, hi, weight_hi}) {
    require_positive(lo, "bimodal lo");
    require_positive(hi, "bimodal hi");
    if (!(weight_hi >= 0.0 && weight_hi <= 1.0)) {
      throw std::invalid_argument("bimodal: weight in [0,1]");
    }
  }
  double mean() const override { return (1.0 - map_.w) * map_.lo + map_.w * map_.hi; }
  double stddev() const override {
    const auto [lo, hi, w] = map_;
    const double m = mean();
    const double v = (1.0 - w) * (lo - m) * (lo - m) + w * (hi - m) * (hi - m);
    return std::sqrt(v);
  }
  std::string name() const override {
    return "bimodal(" + std::to_string(map_.lo) + "," + std::to_string(map_.hi) + "," +
           std::to_string(map_.w) + ")";
  }
  std::string spec() const override {
    return "bimodal:" + support::fmt_shortest(map_.lo) + "," + support::fmt_shortest(map_.hi) +
           "," + support::fmt_shortest(map_.w);
  }
};

class LinearRamp final : public TaskTimeGenerator {
 public:
  LinearRamp(double first, double last) : first_(first), last_(last) {
    require_positive(first, "ramp first");
    require_positive(last, "ramp last");
  }
  double sample(std::size_t i, std::size_t n, RandomSource&) const override {
    if (n <= 1) return first_;
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    return first_ + (last_ - first_) * t;
  }
  double mean() const override { return 0.5 * (first_ + last_); }
  double stddev() const override {
    // Variance of a uniform grid over [first,last] tends to the
    // continuous-uniform variance for large n.
    return std::abs(last_ - first_) / std::sqrt(12.0);
  }
  std::string name() const override {
    return "ramp(" + std::to_string(first_) + "->" + std::to_string(last_) + ")";
  }
  std::string spec() const override {
    return "ramp:" + support::fmt_shortest(first_) + "," + support::fmt_shortest(last_);
  }

 private:
  double first_, last_;
};

class Trace final : public TaskTimeGenerator {
 public:
  explicit Trace(std::vector<double> values) : values_(std::move(values)) {
    if (values_.empty()) throw std::invalid_argument("trace: empty");
    double sum = 0.0, sq = 0.0;
    for (double v : values_) {
      require_positive(v, "trace value");
      sum += v;
      sq += v * v;
    }
    mean_ = sum / static_cast<double>(values_.size());
    stddev_ = std::sqrt(std::max(0.0, sq / static_cast<double>(values_.size()) - mean_ * mean_));
  }
  double sample(std::size_t i, std::size_t, RandomSource&) const override {
    return values_[i % values_.size()];
  }
  double mean() const override { return mean_; }
  double stddev() const override { return stddev_; }
  std::string name() const override {
    return "trace(" + std::to_string(values_.size()) + " samples)";
  }

 private:
  std::vector<double> values_;
  double mean_{}, stddev_{};
};

std::vector<double> parse_args(std::string_view s) {
  std::vector<double> out;
  support::for_each_piece(s, ',', [&](std::string_view piece) {
    const std::string item(piece);
    std::size_t pos = 0;
    out.push_back(std::stod(item, &pos));
    if (pos != item.size()) throw std::invalid_argument("bad number in spec: " + item);
  });
  return out;
}

}  // namespace

std::unique_ptr<TaskTimeGenerator> constant(double value) {
  return std::make_unique<Constant>(value);
}
std::unique_ptr<TaskTimeGenerator> uniform(double lo, double hi) {
  return std::make_unique<Uniform>(lo, hi);
}
std::unique_ptr<TaskTimeGenerator> exponential(double mu) {
  return std::make_unique<Exponential>(mu);
}
std::unique_ptr<TaskTimeGenerator> normal(double mu, double sigma, double floor) {
  return std::make_unique<Normal>(mu, sigma, floor);
}
std::unique_ptr<TaskTimeGenerator> gamma(double shape, double scale) {
  return std::make_unique<Gamma>(shape, scale);
}
std::unique_ptr<TaskTimeGenerator> lognormal(double mean, double stddev) {
  return std::make_unique<Lognormal>(mean, stddev);
}
std::unique_ptr<TaskTimeGenerator> weibull(double shape, double scale) {
  return std::make_unique<Weibull>(shape, scale);
}
std::unique_ptr<TaskTimeGenerator> bimodal(double lo, double hi, double weight_hi) {
  return std::make_unique<Bimodal>(lo, hi, weight_hi);
}
std::unique_ptr<TaskTimeGenerator> linear_ramp(double first, double last) {
  return std::make_unique<LinearRamp>(first, last);
}
std::unique_ptr<TaskTimeGenerator> trace(std::vector<double> values) {
  return std::make_unique<Trace>(std::move(values));
}

std::unique_ptr<TaskTimeGenerator> from_spec(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view kind = spec.substr(0, colon);
  const std::vector<double> a =
      colon == std::string_view::npos ? std::vector<double>{} : parse_args(spec.substr(colon + 1));
  auto need = [&](std::size_t k) {
    if (a.size() != k) {
      throw std::invalid_argument("spec '" + std::string(spec) + "' needs " + std::to_string(k) +
                                  " args");
    }
  };
  if (kind == "constant") { need(1); return constant(a[0]); }
  if (kind == "uniform") { need(2); return uniform(a[0], a[1]); }
  if (kind == "exponential") { need(1); return exponential(a[0]); }
  if (kind == "normal") { need(2); return normal(a[0], a[1]); }
  if (kind == "gamma") { need(2); return gamma(a[0], a[1]); }
  if (kind == "lognormal") { need(2); return lognormal(a[0], a[1]); }
  if (kind == "weibull") { need(2); return weibull(a[0], a[1]); }
  if (kind == "bimodal") { need(3); return bimodal(a[0], a[1], a[2]); }
  if (kind == "ramp") { need(2); return linear_ramp(a[0], a[1]); }
  throw std::invalid_argument("unknown workload spec kind: " + std::string(kind));
}

}  // namespace workload
