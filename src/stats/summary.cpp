#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace stats {

double Accumulator::stddev() const { return std::sqrt(variance()); }

Summary summarize(std::span<const double> values) {
  Summary s;
  // NaNs are excluded and counted; the filtered copy is only made when
  // one is actually present, so the common all-finite path stays
  // allocation-free up to the percentile sort.
  for (double v : values) {
    if (std::isnan(v)) ++s.nan_count;
  }
  std::vector<double> filtered;
  std::span<const double> sample = values;
  if (s.nan_count > 0) {
    filtered.reserve(values.size() - s.nan_count);
    for (double v : values) {
      if (!std::isnan(v)) filtered.push_back(v);
    }
    sample = filtered;
  }
  if (sample.empty()) return s;

  Accumulator acc;
  for (double v : sample) acc.add(v);
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = std::sqrt(acc.sample_variance());
  s.min = acc.min();
  s.max = acc.max();
  // One sort serves all three linear-interpolated quantiles (this runs
  // four times per sweep cell).
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const auto quantile = [&sorted](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  s.median = quantile(0.5);
  s.p5 = quantile(0.05);
  s.p95 = quantile(0.95);
  // Normal-approximation 95% CI of the mean; z = Phi^-1(0.975).
  constexpr double kZ95 = 1.959963984540054;
  const double half = kZ95 * s.stddev / std::sqrt(static_cast<double>(s.count));
  s.ci95_lo = s.mean - half;
  s.ci95_hi = s.mean + half;
  return s;
}

TrimmedMean mean_below(std::span<const double> values, double cutoff) {
  TrimmedMean out;
  Accumulator acc;
  for (double v : values) {
    if (std::isnan(v)) {
      ++out.nans;  // NaN > cutoff is false; without this it would poison the mean
    } else if (v > cutoff) {
      ++out.removed;
    } else {
      acc.add(v);
    }
  }
  out.mean = acc.mean();
  return out;
}

Discrepancy discrepancy(double original, double simulated) {
  Discrepancy d;
  d.absolute = simulated - original;
  d.relative_percent =
      original != 0.0 ? 100.0 * d.absolute / original
                      : (d.absolute == 0.0 ? 0.0 : std::numeric_limits<double>::infinity());
  return d;
}

}  // namespace stats
