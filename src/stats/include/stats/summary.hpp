#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace stats {

/// Numerically stable running mean/variance (Welford).
class Accumulator {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1 || x < min_) min_ = x;
    if (count_ == 1 || x > max_) max_ = x;
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by count).
  [[nodiscard]] double variance() const {
    return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
  }
  /// Sample variance (divides by count - 1).
  [[nodiscard]] double sample_variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed summary of a sample.  NaN inputs are excluded from every
/// statistic and reported in `nan_count` (a NaN would otherwise poison
/// the mean and break the strict weak ordering the percentiles sort
/// with); `count` is the number of finite-or-infinite values summarized.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p5 = 0.0;
  double p95 = 0.0;
  /// Normal-approximation 95% confidence interval of the mean:
  /// mean -+ 1.96 * stddev / sqrt(count).  Collapses to the mean for
  /// count < 2 (stddev is 0 there).
  double ci95_lo = 0.0;
  double ci95_hi = 0.0;
  /// Number of NaN inputs excluded from the statistics above.
  std::size_t nan_count = 0;
};

[[nodiscard]] Summary summarize(std::span<const double> values);

/// Mean after removing every value strictly above `cutoff` -- the
/// paper's Figure 9 analysis removes the FAC runs with average wasted
/// time above 400 s before re-averaging.  Returns the new mean and the
/// number of removed values.  NaN values are neither kept nor counted
/// as removed (`NaN > cutoff` is false, so they would silently poison
/// the mean); they are reported separately in `nans`.
struct TrimmedMean {
  double mean = 0.0;
  std::size_t removed = 0;
  std::size_t nans = 0;
};
[[nodiscard]] TrimmedMean mean_below(std::span<const double> values, double cutoff);

/// Signed discrepancy (simulated - original) and relative discrepancy
/// in percent of the original value, as defined for the paper's
/// Figures 5-8 subfigures (c) and (d).  "A positive difference
/// indicates that the present simulation runs slower."
struct Discrepancy {
  double absolute = 0.0;
  double relative_percent = 0.0;
};
[[nodiscard]] Discrepancy discrepancy(double original, double simulated);

}  // namespace stats
