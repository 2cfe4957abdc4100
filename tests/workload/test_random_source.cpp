#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <set>
#include <vector>

#include "workload/random_source.hpp"

namespace {

using workload::Rand48Source;
using workload::RandomSource;
using workload::XoshiroSource;

template <typename Source>
std::unique_ptr<RandomSource> make_source(std::uint64_t seed) {
  if constexpr (std::is_same_v<Source, Rand48Source>) {
    return std::make_unique<Rand48Source>(static_cast<std::uint32_t>(seed));
  } else {
    return std::make_unique<XoshiroSource>(seed);
  }
}

template <typename Source>
class RandomSourceContract : public ::testing::Test {};

using SourceTypes = ::testing::Types<Rand48Source, XoshiroSource>;
TYPED_TEST_SUITE(RandomSourceContract, SourceTypes);

TYPED_TEST(RandomSourceContract, Uniform01StaysInRange) {
  auto src = make_source<TypeParam>(11);
  for (int i = 0; i < 20000; ++i) {
    const double v = src->uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TYPED_TEST(RandomSourceContract, DeterministicForSameSeed) {
  auto a = make_source<TypeParam>(77);
  auto b = make_source<TypeParam>(77);
  for (int i = 0; i < 200; ++i) ASSERT_EQ(a->next_u64(), b->next_u64());
}

TYPED_TEST(RandomSourceContract, MeanIsCentered) {
  auto src = make_source<TypeParam>(2025);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += src->uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TYPED_TEST(RandomSourceContract, FillIsTheNextNDrawsAndLeavesTheStreamThere) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 4097u}) {
    auto bulk = make_source<TypeParam>(77);
    auto one_by_one = make_source<TypeParam>(77);
    std::vector<double> filled(n);
    bulk->fill_uniform01(filled.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(filled[i]),
                std::bit_cast<std::uint64_t>(one_by_one->uniform01()))
          << "n " << n << ", draw " << i;
    }
    // The stream continues where n uniform01() calls leave it.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk->uniform01()),
              std::bit_cast<std::uint64_t>(one_by_one->uniform01()))
        << "n " << n;
    EXPECT_EQ(bulk->next_u64(), one_by_one->next_u64()) << "n " << n;
  }
}

TEST(XoshiroSource, No64BitCollisionsInShortRun) {
  XoshiroSource src(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(seen.insert(src.next_u64()).second) << "collision at draw " << i;
  }
}

}  // namespace
