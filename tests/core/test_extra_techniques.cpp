// Tests for the post-paper techniques (mFSC, TFSS, RND) and the
// overhead-aware AWF-D/AWF-E variants.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

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

// ---------------------------------------------------------------- mFSC

TEST(Mfsc, ChunkCountTracksFac2) {
  for (std::size_t n : {1024u, 8192u, 100000u}) {
    const dls::Params params = base_params(8, n);
    const auto mfsc = sizes(Kind::kMFSC, params);
    const auto fac2 = sizes(Kind::kFAC2, params);
    // Same overhead budget: chunk counts agree within one batch.
    EXPECT_NEAR(static_cast<double>(mfsc.size()), static_cast<double>(fac2.size()), 8.0)
        << "n=" << n;
  }
}

TEST(Mfsc, AllChunksEqualExceptCappedLast) {
  const auto s = sizes(Kind::kMFSC, base_params(8, 8192));
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_EQ(s[i], s.front());
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 8192u);
}

TEST(Mfsc, NeedsNoStatisticalInputs) {
  // Unlike FSC, mFSC requires neither h nor sigma (its whole point).
  using namespace dls::requires_bit;
  const auto tech = dls::make_technique(Kind::kMFSC, base_params(4, 100));
  EXPECT_EQ(tech->required_mask(), kP | kN);
}

// ---------------------------------------------------------------- TFSS

TEST(Tfss, BatchesOfPEqualChunks) {
  const auto s = sizes(Kind::kTFSS, base_params(4, 10000));
  // All full batches share one size; the final batch may be capped by
  // the remaining-task count, so it is excluded.
  ASSERT_GE(s.size(), 8u);
  const std::size_t full = s.size() - 4;
  for (std::size_t b = 0; b + 4 <= full; b += 4) {
    for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(s[b + i], s[b]) << "batch at " << b;
  }
}

TEST(Tfss, BatchSizesDecreaseLinearly) {
  const auto s = sizes(Kind::kTFSS, base_params(4, 100000));
  std::vector<std::size_t> batch_sizes;
  for (std::size_t b = 0; b + 4 <= s.size(); b += 4) batch_sizes.push_back(s[b]);
  ASSERT_GE(batch_sizes.size(), 3u);
  for (std::size_t i = 1; i < batch_sizes.size(); ++i) {
    EXPECT_LE(batch_sizes[i], batch_sizes[i - 1]);
  }
  // Linear decrease: consecutive batch deltas agree within rounding.
  const auto d0 = static_cast<long>(batch_sizes[0]) - static_cast<long>(batch_sizes[1]);
  const auto d1 = static_cast<long>(batch_sizes[1]) - static_cast<long>(batch_sizes[2]);
  EXPECT_LE(std::abs(d0 - d1), 1);
}

TEST(Tfss, FirstBatchIsMeanOfFirstPTrapezoidSizes) {
  // f = ceil(n/2p) = 1250, delta = (f-1)/(N-1) with N = ceil(2n/(f+1)).
  // The first batch chunk is f - delta*(p-1)/2 rounded.
  const std::size_t n = 10000, p = 4;
  const std::size_t f = (n + 2 * p - 1) / (2 * p);
  const std::size_t N = (2 * n + f) / (f + 1);
  const double delta = static_cast<double>(f - 1) / static_cast<double>(N - 1);
  const double expected = static_cast<double>(f) - delta * (static_cast<double>(p) - 1.0) / 2.0;
  const auto s = sizes(Kind::kTFSS, base_params(p, n));
  EXPECT_NEAR(static_cast<double>(s.front()), expected, 1.0);
}

TEST(Tfss, SmallerThanTssFirstChunk) {
  // TFSS's first batch averages the first p trapezoid sizes, so it must
  // start below TSS's first chunk f.
  const dls::Params params = base_params(8, 100000);
  EXPECT_LT(sizes(Kind::kTFSS, params).front(), sizes(Kind::kTSS, params).front());
}

TEST(Tfss, RejectsLastAboveFirst) {
  dls::Params params = base_params(4, 1000);
  params.tss_first = 5;
  params.tss_last = 10;
  EXPECT_THROW((void)dls::make_technique(Kind::kTFSS, params), std::invalid_argument);
}

// ----------------------------------------------------------------- RND

TEST(Rnd, RespectsBounds) {
  dls::Params params = base_params(4, 10000);
  params.rnd_min = 10;
  params.rnd_max = 50;
  const auto s = sizes(Kind::kRND, params);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    EXPECT_GE(s[i], 10u);
    EXPECT_LE(s[i], 50u);
  }
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 10000u);
}

TEST(Rnd, DefaultUpperBoundIsFairShare) {
  const auto s = sizes(Kind::kRND, base_params(4, 10000));
  for (std::size_t c : s) EXPECT_LE(c, 2500u);
}

TEST(Rnd, DeterministicPerSeedAndResets) {
  dls::Params params = base_params(4, 5000);
  params.rnd_seed = 77;
  const auto tech = dls::make_technique(Kind::kRND, params);
  const auto a = core_test::chunk_sizes(*tech);
  const auto b = core_test::chunk_sizes(*tech);  // chunk_sequence resets first
  EXPECT_EQ(a, b);
  params.rnd_seed = 78;
  const auto tech2 = dls::make_technique(Kind::kRND, params);
  EXPECT_NE(core_test::chunk_sizes(*tech2), a);
}

TEST(Rnd, ActuallyVariesChunkSizes) {
  dls::Params params = base_params(4, 100000);
  params.rnd_min = 1;
  params.rnd_max = 100;  // ~2000 chunks drawn from 100 possible sizes
  const auto s = sizes(Kind::kRND, params);
  const std::set<std::size_t> distinct(s.begin(), s.end());
  EXPECT_GT(distinct.size(), 50u);
}

TEST(Rnd, RejectsInvertedBounds) {
  dls::Params params = base_params(4, 100);
  params.rnd_min = 50;
  params.rnd_max = 10;
  EXPECT_THROW((void)dls::make_technique(Kind::kRND, params), std::invalid_argument);
}

// ----------------------------------------------------- AWF-D / AWF-E

TEST(AwfDE, OverheadAwareMaskIncludesH) {
  using namespace dls::requires_bit;
  const auto d = dls::make_technique(Kind::kAWFD, base_params(4, 1000));
  const auto e = dls::make_technique(Kind::kAWFE, base_params(4, 1000));
  EXPECT_NE(d->required_mask() & kH, 0u);
  EXPECT_NE(e->required_mask() & kH, 0u);
  const auto b = dls::make_technique(Kind::kAWFB, base_params(4, 1000));
  EXPECT_EQ(b->required_mask() & kH, 0u);
}

TEST(AwfDE, ZeroOverheadMatchesBAndC) {
  // With h = 0 the D/E accounting degenerates to B/C exactly.
  dls::Params params = base_params(2, 4096);
  params.h = 0.0;
  for (auto [aware, plain] : {std::pair{Kind::kAWFD, Kind::kAWFB},
                              std::pair{Kind::kAWFE, Kind::kAWFC}}) {
    const auto ta = dls::make_technique(aware, params);
    const auto tp = dls::make_technique(plain, params);
    EXPECT_EQ(core_test::chunk_sizes(*ta, 0.5), core_test::chunk_sizes(*tp, 0.5))
        << dls::to_string(aware);
  }
}

TEST(AwfDE, OverheadDampensWeightSkew) {
  // PE 0 executes 4x faster.  With h comparable to the chunk execution
  // time, AWF-E's total-time rates (exec + h) skew less than AWF-C's
  // pure execution rates; measured on the second batch, right after the
  // first feedback.  (n = 512, p = 2 -> first chunks of 128: exec times
  // 32 s vs 128 s against h = 20 s.)
  auto second_batch_ratio = [](Kind kind) {
    dls::Params params = base_params(2, 512);
    params.h = 20.0;
    const auto tech = dls::make_technique(kind, params);
    const std::size_t c0 = tech->next_chunk(dls::Request{0, 0.0});
    const std::size_t c1 = tech->next_chunk(dls::Request{1, 0.0});
    tech->on_chunk_complete(dls::ChunkFeedback{0, c0, static_cast<double>(c0) / 4.0, 1.0});
    tech->on_chunk_complete(dls::ChunkFeedback{1, c1, static_cast<double>(c1), 1.0});
    const std::size_t d0 = tech->next_chunk(dls::Request{0, 2.0});
    const std::size_t d1 = tech->next_chunk(dls::Request{1, 2.0});
    return static_cast<double>(d0) / static_cast<double>(d1);
  };
  const double skew_c = second_batch_ratio(Kind::kAWFC);
  const double skew_e = second_batch_ratio(Kind::kAWFE);
  EXPECT_GT(skew_c, skew_e);
  EXPECT_GT(skew_e, 1.0);  // still favours the faster PE
}

TEST(AwfDE, AdaptsAtBatchBoundariesOnly) {
  // AWF-D, like AWF-B, must not react to feedback mid-batch.
  dls::Params params = base_params(2, 1 << 12);
  const auto tech = dls::make_technique(Kind::kAWFD, params);
  const std::size_t c0 = tech->next_chunk(dls::Request{0, 0.0});
  tech->on_chunk_complete(dls::ChunkFeedback{0, c0, static_cast<double>(c0) / 4.0, 1.0});
  const std::size_t c1 = tech->next_chunk(dls::Request{1, 1.0});
  EXPECT_EQ(c1, c0);  // same batch, same size
}

}  // namespace
