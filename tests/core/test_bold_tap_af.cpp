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
  params.h = 0.5;
  return params;
}

std::vector<std::size_t> sizes(Kind kind, const dls::Params& params) {
  const auto tech = dls::make_technique(kind, params);
  return core_test::chunk_sizes(*tech);
}

// ---------------------------------------------------------------- BOLD

TEST(Bold, FirstChunkIsBolderThanFactoring) {
  // BOLD's defining property: initial chunks close to the fair share
  // r/p (minus a variance margin), well above FAC2's r/(2p).
  const dls::Params params = base_params(2, 524288);
  const std::size_t bold_first = sizes(Kind::kBOLD, params).front();
  const std::size_t fac2_first = sizes(Kind::kFAC2, params).front();
  EXPECT_GT(bold_first, fac2_first);
  EXPECT_LT(bold_first, 524288u / 2u);  // but below the plain fair share
}

TEST(Bold, VarianceMarginMatchesClosedForm) {
  // For sigma = mu = 1: a = 2, b = 16*ln(16) ~= 44.361.
  // First request: r = n, t1 = n/p, K = t1 + b/2 - sqrt(b*t1 + b^2/4).
  const dls::Params params = base_params(2, 524288);
  const double t1 = 524288.0 / 2.0;
  const double b = 16.0 * std::log(16.0);
  const double expected = t1 + b / 2.0 - std::sqrt(b * t1 + b * b / 4.0);
  const auto s = sizes(Kind::kBOLD, params);
  EXPECT_NEAR(static_cast<double>(s.front()), expected, 1.0);
}

TEST(Bold, ZeroVarianceZeroOverheadIsFairShare) {
  dls::Params params = base_params(4, 1000);
  params.sigma = 0.0;
  params.h = 0.0;
  const auto s = sizes(Kind::kBOLD, params);
  EXPECT_EQ(s.front(), 250u);
}

TEST(Bold, OverheadFloorKeepsTailChunksLarge) {
  // With h > 0 the tail must not degenerate to size-1 chunks the way
  // GSS does: count trailing chunks of size 1.
  dls::Params with_h = base_params(8, 65536);
  dls::Params no_h = base_params(8, 65536);
  no_h.h = 0.0;
  const auto s_h = sizes(Kind::kBOLD, with_h);
  const auto s_0 = sizes(Kind::kBOLD, no_h);
  auto ones = [](const std::vector<std::size_t>& v) {
    return std::count(v.begin(), v.end(), std::size_t{1});
  };
  EXPECT_LE(ones(s_h), ones(s_0));
  // And fewer scheduling operations overall with overhead active.
  EXPECT_LE(s_h.size(), s_0.size() + 8);
}

TEST(Bold, FewerChunksThanSelfScheduling) {
  const auto s = sizes(Kind::kBOLD, base_params(8, 8192));
  EXPECT_LT(s.size(), 8192u / 4u);
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 8192u);
}

TEST(Bold, TinyLoopStillTerminates) {
  const auto s = sizes(Kind::kBOLD, base_params(8, 4));
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 4u);
}

// ----------------------------------------------------------------- TAP

TEST(Tap, ZeroVarianceReducesToGuidedShare) {
  dls::Params params = base_params(4, 100);
  params.sigma = 0.0;
  const auto tap = sizes(Kind::kTAP, params);
  EXPECT_EQ(tap.front(), 25u);  // ceil(r/p) like GSS
}

TEST(Tap, MatchesLuccoFormulaOnFirstChunk) {
  // alpha = v*sigma/mu = 1.3; T = 1000/4 = 250.
  // K = T + a^2/2 - a*sqrt(2T + a^2/4) = 250 + 0.845 - 1.3*sqrt(500.4225)
  //   ~= 221.76 -> ceil 222.
  const dls::Params params = base_params(4, 1000);
  const auto s = sizes(Kind::kTAP, params);
  EXPECT_EQ(s.front(), 222u);
}

TEST(Tap, TapersBelowGssButAboveOne) {
  const dls::Params params = base_params(8, 10000);
  const auto tap = sizes(Kind::kTAP, params);
  const auto gss = sizes(Kind::kGSS, params);
  EXPECT_LT(tap.front(), gss.front());
  for (std::size_t c : tap) EXPECT_GE(c, 1u);
  EXPECT_EQ(std::accumulate(tap.begin(), tap.end(), std::size_t{0}), 10000u);
}

TEST(Tap, LargerVAlphaGivesSmallerChunks) {
  dls::Params cautious = base_params(4, 10000);
  cautious.tap_v_alpha = 2.0;
  dls::Params bold_v = base_params(4, 10000);
  bold_v.tap_v_alpha = 0.5;
  EXPECT_LT(sizes(Kind::kTAP, cautious).front(), sizes(Kind::kTAP, bold_v).front());
}

// ------------------------------------------------------------------ AF

TEST(Af, BootstrapsWithProbingChunks) {
  // Before any feedback: chunk = ceil(r/(2p^2)).
  const dls::Params params = base_params(4, 1000);
  const auto tech = dls::make_technique(Kind::kAF, params);
  const std::size_t first = tech->next_chunk(dls::Request{0, 0.0});
  EXPECT_EQ(first, (1000 + 31) / 32);
}

TEST(Af, UsesPerPeEstimatesAfterWarmup) {
  const dls::Params params = base_params(2, 1 << 16);
  const auto tech = dls::make_technique(Kind::kAF, params);
  double now = 0.0;
  // Warm up both PEs with two chunks each (constant task time 1.0).
  for (int round = 0; round < 2; ++round) {
    for (std::size_t pe = 0; pe < 2; ++pe) {
      const std::size_t c = tech->next_chunk(dls::Request{pe, now});
      ASSERT_GT(c, 0u);
      tech->on_chunk_complete(dls::ChunkFeedback{pe, c, static_cast<double>(c), now});
      now += 1.0;
    }
  }
  // With (near) zero observed variance, D ~ 0 and the AF chunk
  // approaches T/mu_i = r/p for equal speeds.
  const std::size_t c = tech->next_chunk(dls::Request{0, now});
  const std::size_t r_before = (std::size_t{1} << 16) - tech->allocated() + c;
  EXPECT_NEAR(static_cast<double>(c), static_cast<double>(r_before) / 2.0,
              static_cast<double>(r_before) * 0.05);
}

TEST(Af, FasterPeGetsLargerChunks) {
  // With mu_fast = 0.5, mu_slow = 2.0 and (near) zero observed
  // variance, D ~ 0 and the AF rule gives K_i = T/mu_i with
  // T = R/(1/0.5 + 1/2.0) = 0.4*R, i.e. the fast PE receives ~80% of
  // the tasks remaining at ITS request and the slow one ~20% of what
  // remains at its own (later) request.
  const dls::Params params = base_params(2, 1 << 18);
  const auto tech = dls::make_technique(Kind::kAF, params);
  double now = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t pe = 0; pe < 2; ++pe) {
      const std::size_t c = tech->next_chunk(dls::Request{pe, now});
      ASSERT_GT(c, 0u);
      const double per_task = pe == 0 ? 0.5 : 2.0;  // pe0 is 4x faster
      tech->on_chunk_complete(
          dls::ChunkFeedback{pe, c, per_task * static_cast<double>(c), now});
      now += 1.0;
    }
  }
  const double r_before_fast = static_cast<double>(tech->remaining());
  const std::size_t fast = tech->next_chunk(dls::Request{0, now});
  const double r_before_slow = static_cast<double>(tech->remaining());
  const std::size_t slow = tech->next_chunk(dls::Request{1, now});
  ASSERT_GT(fast, 0u);
  ASSERT_GT(slow, 0u);
  EXPECT_NEAR(static_cast<double>(fast) / r_before_fast, 0.8, 0.05);
  EXPECT_NEAR(static_cast<double>(slow) / r_before_slow, 0.2, 0.05);
}

TEST(Af, ConservationUnderAdaptiveFeedback) {
  const dls::Params params = base_params(4, 5000);
  const auto tech = dls::make_technique(Kind::kAF, params);
  const auto s = core_test::chunk_sizes(*tech, /*task_time=*/0.7);
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 5000u);
}

}  // namespace
