#include <gtest/gtest.h>

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

// ---------------------------------------------------------------- STAT

TEST(Stat, EvenDivisionGivesEqualBlocks) {
  const auto s = sizes(Kind::kStatic, base_params(4, 100));
  EXPECT_EQ(s, (std::vector<std::size_t>{25, 25, 25, 25}));
}

TEST(Stat, RemainderSpreadsOverFirstBlocks) {
  const auto s = sizes(Kind::kStatic, base_params(4, 10));
  EXPECT_EQ(s, (std::vector<std::size_t>{3, 3, 2, 2}));
}

TEST(Stat, MorePesThanTasksLeavesSomeEmpty) {
  // p = 8, n = 3: blocks of size 1 for the first three requesters;
  // the rest find nothing (chunk 0 terminates the sequence).
  const auto s = sizes(Kind::kStatic, base_params(8, 3));
  EXPECT_EQ(s, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(Stat, SinglePeTakesEverythingAtOnce) {
  const auto s = sizes(Kind::kStatic, base_params(1, 42));
  EXPECT_EQ(s, (std::vector<std::size_t>{42}));
}

// ------------------------------------------------------------------ SS

TEST(SelfScheduling, OneTaskPerRequest) {
  const auto s = sizes(Kind::kSS, base_params(4, 17));
  EXPECT_EQ(s.size(), 17u);
  for (std::size_t c : s) EXPECT_EQ(c, 1u);
}

// ----------------------------------------------------------------- CSS

TEST(Css, DefaultChunkIsTasksOverPes) {
  // The TSS publication's convention: k = n/p.
  const auto s = sizes(Kind::kCSS, base_params(4, 100));
  EXPECT_EQ(s, (std::vector<std::size_t>{25, 25, 25, 25}));
}

TEST(Css, ExplicitChunkSizeHonored) {
  dls::Params params = base_params(4, 100);
  params.css_chunk = 30;
  const auto s = sizes(Kind::kCSS, params);
  EXPECT_EQ(s, (std::vector<std::size_t>{30, 30, 30, 10}));  // last capped
}

TEST(Css, ChunkLargerThanNGivesSingleChunk) {
  dls::Params params = base_params(4, 10);
  params.css_chunk = 1000;
  const auto s = sizes(Kind::kCSS, params);
  EXPECT_EQ(s, (std::vector<std::size_t>{10}));
}

// ----------------------------------------------------------------- FSC

TEST(Fsc, MatchesKruskalWeissFormula) {
  // k = (sqrt(2)*n*h / (sigma*p*sqrt(ln p)))^(2/3)
  // n = 4096, h = 0.5, sigma = 1, p = 8:
  //   = (1.41421*4096*0.5 / (8*sqrt(2.07944)))^(2/3)
  //   = (2896.31 / 11.5362)^(2/3) = 251.063^(2/3) ~= 39.74  -> ceil = 40
  const auto tech = dls::make_technique(Kind::kFSC, base_params(8, 4096));
  const auto s = core_test::chunk_sizes(*tech);
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), 40u);
  // All chunks equal except possibly the capped last one.
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_EQ(s[i], 40u);
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 4096u);
}

TEST(Fsc, ZeroVarianceFallsBackToFairShare) {
  dls::Params params = base_params(4, 100);
  params.sigma = 0.0;
  const auto s = sizes(Kind::kFSC, params);
  EXPECT_EQ(s, (std::vector<std::size_t>{25, 25, 25, 25}));
}

TEST(Fsc, ZeroOverheadFallsBackToFairShare) {
  dls::Params params = base_params(4, 100);
  params.h = 0.0;
  const auto s = sizes(Kind::kFSC, params);
  EXPECT_EQ(s.front(), 25u);
}

TEST(Fsc, SinglePeFallsBackToWholeLoop) {
  const auto s = sizes(Kind::kFSC, base_params(1, 64));
  EXPECT_EQ(s, (std::vector<std::size_t>{64}));
}

TEST(Fsc, ChunkNeverExceedsFairShare) {
  // Huge overhead would push the formula above n/p; the clamp keeps
  // at least p chunks.
  dls::Params params = base_params(4, 100);
  params.h = 1e9;
  const auto s = sizes(Kind::kFSC, params);
  EXPECT_EQ(s.front(), 25u);
}

TEST(Fsc, HigherVarianceGivesSmallerChunks) {
  dls::Params low = base_params(8, 10000);
  low.sigma = 0.5;
  dls::Params high = base_params(8, 10000);
  high.sigma = 4.0;
  EXPECT_GT(sizes(Kind::kFSC, low).front(), sizes(Kind::kFSC, high).front());
}

TEST(Fsc, HigherOverheadGivesLargerChunks) {
  dls::Params low = base_params(8, 10000);
  low.h = 0.01;
  dls::Params high = base_params(8, 10000);
  high.h = 2.0;
  EXPECT_LT(sizes(Kind::kFSC, low).front(), sizes(Kind::kFSC, high).front());
}

}  // namespace
