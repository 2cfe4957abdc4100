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
  return params;
}

std::vector<std::size_t> sizes(Kind kind, const dls::Params& params) {
  const auto tech = dls::make_technique(kind, params);
  return core_test::chunk_sizes(*tech);
}

// ----------------------------------------------------------------- GSS

TEST(Gss, ClassicSequenceN100P4) {
  // ceil(r/p) chain: 100 -> 25, 75 -> 19, 56 -> 14, 42 -> 11, 31 -> 8,
  // 23 -> 6, 17 -> 5, 12 -> 3, 9 -> 3, 6 -> 2, then 1s.
  const auto s = sizes(Kind::kGSS, base_params(4, 100));
  EXPECT_EQ(s, (std::vector<std::size_t>{25, 19, 14, 11, 8, 6, 5, 3, 3, 2, 1, 1, 1, 1}));
}

TEST(Gss, FirstChunkIsCeilNOverP) {
  const auto s = sizes(Kind::kGSS, base_params(7, 1000));
  EXPECT_EQ(s.front(), (1000 + 6) / 7);
}

TEST(Gss, MinChunkBoundsTail) {
  dls::Params params = base_params(4, 100);
  params.gss_min_chunk = 5;
  const auto s = sizes(Kind::kGSS, params);
  // Every chunk except possibly the final capped one is >= 5.
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_GE(s[i], 5u);
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 100u);
  // And the technique reports the k in its display name.
  const auto tech = dls::make_technique(Kind::kGSS, params);
  EXPECT_EQ(tech->name(), "GSS(5)");
}

TEST(Gss, MinChunkShortensSequence) {
  dls::Params k1 = base_params(8, 10000);
  dls::Params k80 = base_params(8, 10000);
  k80.gss_min_chunk = 80;
  EXPECT_GT(sizes(Kind::kGSS, k1).size(), sizes(Kind::kGSS, k80).size());
}

TEST(Gss, NonIncreasingSizes) {
  const auto s = sizes(Kind::kGSS, base_params(16, 5000));
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LE(s[i], s[i - 1]);
}

TEST(Gss, SinglePeTakesWholeLoop) {
  const auto s = sizes(Kind::kGSS, base_params(1, 77));
  EXPECT_EQ(s, (std::vector<std::size_t>{77}));
}

// ----------------------------------------------------------------- TSS

TEST(Tss, DefaultsMatchTzenNi) {
  // f = ceil(n/(2p)), l = 1.
  dls::Params params = base_params(4, 1000);
  const auto s = sizes(Kind::kTSS, params);
  EXPECT_EQ(s.front(), 125u);
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 1000u);
}

TEST(Tss, PinnedSequenceN100P2) {
  // f = 25, l = 1, N = ceil(200/26) = 8, delta = 24/7 ~= 3.4286.
  // Rounded linear descent capped at n: 25, 22, 18, 15, 11, 8, then the
  // remaining 1 task.
  const auto s = sizes(Kind::kTSS, base_params(2, 100));
  EXPECT_EQ(s, (std::vector<std::size_t>{25, 22, 18, 15, 11, 8, 1}));
}

TEST(Tss, LinearDecreaseBetweenConsecutiveChunks) {
  const auto s = sizes(Kind::kTSS, base_params(8, 100000));
  // delta = (f - l)/(N - 1); consecutive differences must be delta
  // rounded, i.e. within 1 of each other.
  for (std::size_t i = 2; i + 1 < s.size(); ++i) {
    const auto d1 = static_cast<long>(s[i - 1]) - static_cast<long>(s[i]);
    const auto d0 = static_cast<long>(s[i - 2]) - static_cast<long>(s[i - 1]);
    EXPECT_LE(std::abs(d1 - d0), 1) << "at chunk " << i;
  }
}

TEST(Tss, ExplicitFirstLastHonored) {
  dls::Params params = base_params(4, 1000);
  params.tss_first = 100;
  params.tss_last = 20;
  const auto s = sizes(Kind::kTSS, params);
  EXPECT_EQ(s.front(), 100u);
  // Tail chunks never drop below l (except the final cap).
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_GE(s[i], 20u);
  EXPECT_EQ(std::accumulate(s.begin(), s.end(), std::size_t{0}), 1000u);
}

TEST(Tss, RejectsLastAboveFirst) {
  dls::Params params = base_params(4, 1000);
  params.tss_first = 10;
  params.tss_last = 20;
  EXPECT_THROW((void)dls::make_technique(Kind::kTSS, params), std::invalid_argument);
}

TEST(Tss, PlannedChunkCountApproximation) {
  // N = ceil(2n/(f+l)); the actual sequence length is within 1 of N
  // (rounding can merge the last two chunks).
  dls::Params params = base_params(4, 1000);
  const auto s = sizes(Kind::kTSS, params);
  const std::size_t f = 125, l = 1;
  const std::size_t n_planned = (2 * 1000 + f + l - 1) / (f + l);
  EXPECT_NEAR(static_cast<double>(s.size()), static_cast<double>(n_planned), 1.0);
}

TEST(Tss, EqualFirstAndLastGivesConstantChunks) {
  dls::Params params = base_params(4, 100);
  params.tss_first = 10;
  params.tss_last = 10;
  const auto s = sizes(Kind::kTSS, params);
  for (std::size_t c : s) EXPECT_EQ(c, 10u);
}

}  // namespace
