#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "chunk_sizes.hpp"
#include "dls/technique.hpp"

namespace {

using dls::Kind;

dls::Params base_params(std::size_t p, std::size_t n) {
  dls::Params params;
  params.p = p;
  params.n = n;
  params.mu = 1.0;
  params.sigma = 1.0;
  return params;
}

std::vector<std::size_t> sizes(Kind kind, const dls::Params& params) {
  const auto tech = dls::make_technique(kind, params);
  return core_test::chunk_sizes(*tech);
}

// ---------------------------------------------------------------- FAC2

TEST(Fac2, ClassicHalvingBatchesN100P4) {
  // Batches hand out ceil(R/2p): 13x4, 6x4, 3x4, 2x4, 1x4 = 100.
  const auto s = sizes(Kind::kFAC2, base_params(4, 100));
  EXPECT_EQ(s, (std::vector<std::size_t>{13, 13, 13, 13, 6, 6, 6, 6, 3, 3, 3, 3, 2, 2, 2, 2, 1,
                                         1, 1, 1}));
}

TEST(Fac2, BatchesOfPEqualChunks) {
  const auto s = sizes(Kind::kFAC2, base_params(8, 8192));
  for (std::size_t b = 0; b + 8 <= s.size(); b += 8) {
    for (std::size_t i = 1; i < 8 && b + i < s.size(); ++i) {
      EXPECT_EQ(s[b + i], s[b]) << "batch starting at " << b;
    }
  }
}

TEST(Fac2, FirstBatchIsHalfTheWork) {
  const auto s = sizes(Kind::kFAC2, base_params(8, 8192));
  EXPECT_EQ(s.front(), 8192u / 16u);
}

TEST(Fac2, ChunkCountIsLogarithmic) {
  const auto s = sizes(Kind::kFAC2, base_params(4, 1 << 20));
  // ~ p * log2(n/p) batches of p chunks each.
  EXPECT_LT(s.size(), 4u * 25u);
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), std::size_t{1} << 20);
}

// ----------------------------------------------------------------- FAC

TEST(Fac, ZeroVarianceDegeneratesToStaticChunks) {
  // b = 0 -> x_0 = 1 -> the first batch already hands out R/p per PE.
  dls::Params params = base_params(4, 100);
  params.sigma = 0.0;
  const auto s = sizes(Kind::kFAC, params);
  EXPECT_EQ(s, (std::vector<std::size_t>{25, 25, 25, 25}));
}

TEST(Fac, FirstBatchMatchesHummelFormula) {
  // n = 1024, p = 4, sigma/mu = 1:
  // b0 = 4/(2*32) = 0.0625; x0 = 1 + b0^2 + b0*sqrt(b0^2+2) ~= 1.09236
  // chunk0 = ceil(1024/(x0*4)) = ceil(234.36) = 235.
  const auto s = sizes(Kind::kFAC, base_params(4, 1024));
  EXPECT_EQ(s.front(), 235u);
}

TEST(Fac, HigherVarianceGivesSmallerFirstBatch) {
  dls::Params low = base_params(8, 65536);
  low.sigma = 0.25;
  dls::Params high = base_params(8, 65536);
  high.sigma = 4.0;
  EXPECT_GT(sizes(Kind::kFAC, low).front(), sizes(Kind::kFAC, high).front());
}

TEST(Fac, MoreConservativeThanFac2UnderHighVariance) {
  // FAC's variance coefficient is b = p*sigma/(2*sqrt(R)*mu); it only
  // dominates when sigma is large relative to sqrt(R)/p.  At n = 1024,
  // p = 8, sigma = 8: b = 1, x0 = 2 + sqrt(3) > 2, so FAC's first batch
  // is smaller than FAC2's half-splitting.
  dls::Params params = base_params(8, 1024);
  params.sigma = 8.0;
  EXPECT_LT(sizes(Kind::kFAC, params).front(), sizes(Kind::kFAC2, params).front());
}

TEST(Fac, BatchSizesNonIncreasing) {
  const auto s = sizes(Kind::kFAC, base_params(4, 10000));
  for (std::size_t i = 4; i < s.size(); i += 4) {
    EXPECT_LE(s[i], s[i - 4]);
  }
}

// ------------------------------------------------------------------ WF

TEST(Wf, WeightsScaleChunksProportionally) {
  dls::Params params = base_params(4, 10000);
  params.weights = {2.0, 2.0, 1.0, 1.0};  // normalized to {4/3,4/3,2/3,2/3}
  const auto tech = dls::make_technique(Kind::kWF, params);
  const auto recs = dls::chunk_sequence(*tech);
  // Round-robin requests: the first batch is chunks 0..3 from pe 0..3.
  ASSERT_GE(recs.size(), 4u);
  const double base = 10000.0 / 8.0;  // unweighted FAC2 first-batch chunk
  EXPECT_NEAR(static_cast<double>(recs[0].size), base * 4.0 / 3.0, 1.0);
  EXPECT_NEAR(static_cast<double>(recs[2].size), base * 2.0 / 3.0, 1.0);
}

TEST(Wf, EqualWeightsReduceToFac2) {
  dls::Params params = base_params(4, 4096);
  params.weights = {3.0, 3.0, 3.0, 3.0};  // equal, any scale
  EXPECT_EQ(sizes(Kind::kWF, params), sizes(Kind::kFAC2, base_params(4, 4096)));
}

TEST(Wf, EmptyWeightsMeanEqual) {
  dls::Params params = base_params(4, 4096);
  EXPECT_EQ(sizes(Kind::kWF, params), sizes(Kind::kFAC2, base_params(4, 4096)));
}

TEST(Wf, ConservationWithSkewedWeights) {
  dls::Params params = base_params(3, 1000);
  params.weights = {10.0, 1.0, 1.0};
  const auto s = sizes(Kind::kWF, params);
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 1000u);
}

// ------------------------------------------------------- AWF variants

TEST(Awf, StartsFromEqualWeights) {
  dls::Params params = base_params(4, 4096);
  EXPECT_EQ(sizes(Kind::kAWF, params), sizes(Kind::kFAC2, base_params(4, 4096)));
}

TEST(AwfC, AdaptsWeightsTowardFasterPe) {
  // PE 0 reports chunks twice as fast as PE 1; after enough feedback,
  // PE 0's chunks should be roughly twice PE 1's within a batch.
  dls::Params params = base_params(2, 1 << 16);
  const auto tech = dls::make_technique(Kind::kAWFC, params);
  double now = 0.0;
  std::size_t last0 = 0, last1 = 0;
  for (int round = 0; round < 8; ++round) {
    const std::size_t c0 = tech->next_chunk(dls::Request{0, now});
    const std::size_t c1 = tech->next_chunk(dls::Request{1, now});
    if (c0 == 0 || c1 == 0) break;
    last0 = c0;
    last1 = c1;
    // PE 0 executes at rate 2 tasks/s, PE 1 at rate 1 task/s.
    tech->on_chunk_complete(dls::ChunkFeedback{0, c0, static_cast<double>(c0) / 2.0, now});
    tech->on_chunk_complete(dls::ChunkFeedback{1, c1, static_cast<double>(c1) * 1.0, now});
    now += 1.0;
  }
  ASSERT_GT(last0, 0u);
  ASSERT_GT(last1, 0u);
  const double ratio = static_cast<double>(last0) / static_cast<double>(last1);
  EXPECT_NEAR(ratio, 2.0, 0.4);
}

TEST(AwfB, AdaptsOnlyAtBatchBoundaries) {
  dls::Params params = base_params(2, 1 << 12);
  const auto tech = dls::make_technique(Kind::kAWFB, params);
  // First batch: both chunks equal (no measurements yet).
  const std::size_t c0 = tech->next_chunk(dls::Request{0, 0.0});
  tech->on_chunk_complete(dls::ChunkFeedback{0, c0, static_cast<double>(c0) / 4.0, 1.0});
  // Feedback arrived mid-batch; the second chunk of the SAME batch must
  // still use the old (equal) weights.
  const std::size_t c1 = tech->next_chunk(dls::Request{1, 1.0});
  EXPECT_EQ(c1, c0);
  tech->on_chunk_complete(dls::ChunkFeedback{1, c1, static_cast<double>(c1), 2.0});
  // Next batch: weights refresh; PE 0 is 4x faster.
  const std::size_t d0 = tech->next_chunk(dls::Request{0, 2.0});
  const std::size_t d1 = tech->next_chunk(dls::Request{1, 2.0});
  EXPECT_GT(d0, d1);
}

TEST(Awf, TimestepBoundaryRefreshesWeightsAndPreservesStats) {
  dls::Params params = base_params(2, 1000);
  const auto tech = dls::make_technique(Kind::kAWF, params);
  // Consume the whole first step with skewed feedback.
  double now = 0.0;
  for (;;) {
    const std::size_t c0 = tech->next_chunk(dls::Request{0, now});
    if (c0 == 0) break;
    tech->on_chunk_complete(dls::ChunkFeedback{0, c0, static_cast<double>(c0) / 3.0, now});
    const std::size_t c1 = tech->next_chunk(dls::Request{1, now});
    if (c1 > 0) {
      tech->on_chunk_complete(dls::ChunkFeedback{1, c1, static_cast<double>(c1), now});
    }
    now += 1.0;
  }
  // Within the step, AWF (per-timestep variant) never re-weights.
  // After the boundary it must.
  tech->start_new_timestep();
  const std::size_t d0 = tech->next_chunk(dls::Request{0, now});
  const std::size_t d1 = tech->next_chunk(dls::Request{1, now});
  EXPECT_GT(d0, d1);
  // And a full reset clears the adaptation.
  tech->reset();
  const std::size_t e0 = tech->next_chunk(dls::Request{0, 0.0});
  const std::size_t e1 = tech->next_chunk(dls::Request{1, 0.0});
  EXPECT_EQ(e0, e1);
}

}  // namespace
