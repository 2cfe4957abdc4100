#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats/summary.hpp"

namespace {

using stats::Accumulator;

TEST(Accumulator, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  Accumulator acc;
  for (double x : xs) acc.add(x);
  const double mean = (1 + 2 + 4 + 8 + 16) / 5.0;  // 6.2
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  EXPECT_DOUBLE_EQ(acc.mean(), mean);
  EXPECT_NEAR(acc.variance(), var / 5.0, 1e-12);
  EXPECT_NEAR(acc.sample_variance(), var / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 16.0);
  EXPECT_EQ(acc.count(), 5u);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, SingleValueHasZeroVariance) {
  Accumulator acc;
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sample_variance(), 0.0);
}

TEST(Accumulator, NumericallyStableForLargeOffsets) {
  // Classic catastrophic-cancellation case: large mean, small variance.
  Accumulator acc;
  const double base = 1e9;
  for (int i = 0; i < 1000; ++i) acc.add(base + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(acc.variance(), 0.25, 1e-6);
}

TEST(Summarize, QuantilesInterpolateLinearly) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  const stats::Summary s = stats::summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.p5, 1.15);   // position 0.05 * 3 = 0.15
  EXPECT_DOUBLE_EQ(s.p95, 3.85);  // position 0.95 * 3 = 2.85
}

TEST(Summarize, FullSummary) {
  const std::vector<double> xs = {5.0, 1.0, 3.0};
  const stats::Summary s = stats::summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, 2.0, 1e-12);  // sample stddev of {1,3,5}
}

TEST(Summarize, EmptyInputGivesZeroSummary) {
  const stats::Summary s = stats::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, PercentilesAndConfidenceInterval) {
  std::vector<double> xs(101);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);  // 0..100
  const stats::Summary s = stats::summarize(xs);
  EXPECT_DOUBLE_EQ(s.p5, 5.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.median, 50.0);
  // Normal approximation: mean -+ 1.96 * stddev / sqrt(n).
  const double half = 1.959963984540054 * s.stddev / std::sqrt(101.0);
  EXPECT_DOUBLE_EQ(s.ci95_lo, s.mean - half);
  EXPECT_DOUBLE_EQ(s.ci95_hi, s.mean + half);
  EXPECT_EQ(s.nan_count, 0u);
}

TEST(Summarize, SingleValueCollapsesConfidenceInterval) {
  const stats::Summary s = stats::summarize(std::vector<double>{3.5});
  EXPECT_DOUBLE_EQ(s.ci95_lo, 3.5);
  EXPECT_DOUBLE_EQ(s.ci95_hi, 3.5);
}

TEST(Summarize, CountsAndExcludesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs = {nan, 1.0, 3.0, nan, 5.0};
  const stats::Summary s = stats::summarize(xs);
  EXPECT_EQ(s.nan_count, 2u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Summarize, AllNaNGivesEmptySummary) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const stats::Summary s = stats::summarize(std::vector<double>{nan, nan});
  EXPECT_EQ(s.nan_count, 2u);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(MeanBelow, ReplicatesFigure9Trimming) {
  // Paper Figure 9: of 1000 runs, 15 values above 400 s are excluded
  // and the mean recomputed.
  std::vector<double> xs(100, 10.0);
  xs[3] = 500.0;
  xs[97] = 450.0;
  const stats::TrimmedMean t = stats::mean_below(xs, 400.0);
  EXPECT_EQ(t.removed, 2u);
  EXPECT_DOUBLE_EQ(t.mean, 10.0);
}

TEST(MeanBelow, NoRemovalKeepsMean) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const stats::TrimmedMean t = stats::mean_below(xs, 100.0);
  EXPECT_EQ(t.removed, 0u);
  EXPECT_DOUBLE_EQ(t.mean, 2.0);
}

TEST(MeanBelow, NaNNeitherKeptNorRemoved) {
  // Regression: NaN > cutoff is false, so NaN used to be *included*
  // and silently turned the trimmed mean into NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs = {10.0, nan, 500.0, nan, 10.0};
  const stats::TrimmedMean t = stats::mean_below(xs, 400.0);
  EXPECT_EQ(t.removed, 1u);
  EXPECT_EQ(t.nans, 2u);
  EXPECT_DOUBLE_EQ(t.mean, 10.0);
  EXPECT_FALSE(std::isnan(t.mean));
}

TEST(Discrepancy, SignConventionMatchesPaper) {
  // "A positive difference indicates that the present simulation runs
  // slower" -- discrepancy = simulated - original.
  const stats::Discrepancy d = stats::discrepancy(10.0, 11.5);
  EXPECT_DOUBLE_EQ(d.absolute, 1.5);
  EXPECT_DOUBLE_EQ(d.relative_percent, 15.0);
  const stats::Discrepancy neg = stats::discrepancy(10.0, 9.0);
  EXPECT_DOUBLE_EQ(neg.absolute, -1.0);
  EXPECT_DOUBLE_EQ(neg.relative_percent, -10.0);
}

TEST(Discrepancy, ZeroOriginalHandled) {
  const stats::Discrepancy same = stats::discrepancy(0.0, 0.0);
  EXPECT_DOUBLE_EQ(same.relative_percent, 0.0);
  const stats::Discrepancy diff = stats::discrepancy(0.0, 1.0);
  EXPECT_TRUE(std::isinf(diff.relative_percent));
}

}  // namespace
