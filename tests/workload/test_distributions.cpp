#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stats/summary.hpp"
#include "workload/random_source.hpp"
#include "workload/task_times.hpp"

namespace {

using workload::RandomSource;
using workload::Rand48Source;
using workload::TaskTimeGenerator;
using workload::XoshiroSource;

constexpr std::size_t kSamples = 200000;

/// Sample moments of a generator must match its declared mean/stddev.
struct MomentsCase {
  const char* spec;
  double mean_tol;
  double stddev_tol;
};

class DeclaredMoments : public ::testing::TestWithParam<MomentsCase> {};

TEST_P(DeclaredMoments, SampleMomentsMatchDeclaration) {
  const MomentsCase& c = GetParam();
  const auto gen = workload::from_spec(c.spec);
  XoshiroSource rng(4242);
  const std::vector<double> xs = gen->generate(kSamples, rng);
  const stats::Summary s = stats::summarize(xs);
  EXPECT_NEAR(s.mean, gen->mean(), c.mean_tol) << c.spec;
  EXPECT_NEAR(s.stddev, gen->stddev(), c.stddev_tol) << c.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Specs, DeclaredMoments,
    ::testing::Values(MomentsCase{"constant:2.5", 1e-12, 1e-12},
                      MomentsCase{"uniform:1.0,3.0", 0.01, 0.01},
                      MomentsCase{"exponential:1.0", 0.01, 0.02},
                      MomentsCase{"normal:5.0,0.5", 0.01, 0.01},
                      MomentsCase{"gamma:2.0,0.5", 0.01, 0.02},
                      MomentsCase{"lognormal:1.0,0.5", 0.01, 0.02},
                      MomentsCase{"weibull:1.5,1.0", 0.01, 0.02},
                      MomentsCase{"bimodal:0.1,1.0,0.25", 0.01, 0.01},
                      MomentsCase{"ramp:2.0,0.1", 0.01, 0.01}));

TEST(Distributions, AllSamplesPositive) {
  const char* specs[] = {"exponential:1.0", "normal:1.0,1.0", "gamma:0.5,2.0",
                         "lognormal:1.0,1.0", "weibull:0.8,1.0"};
  for (const char* spec : specs) {
    const auto gen = workload::from_spec(spec);
    XoshiroSource rng(7);
    for (std::size_t i = 0; i < 20000; ++i) {
      ASSERT_GT(gen->sample(i, 20000, rng), 0.0) << spec;
    }
  }
}

TEST(Distributions, ConstantIgnoresRng) {
  const auto gen = workload::constant(0.25);
  XoshiroSource a(1), b(999);
  EXPECT_EQ(gen->sample(0, 10, a), gen->sample(5, 10, b));
}

TEST(Distributions, RampEndpointsAndDirection) {
  const auto inc = workload::linear_ramp(1.0, 9.0);
  const auto dec = workload::linear_ramp(9.0, 1.0);
  XoshiroSource rng(1);
  EXPECT_DOUBLE_EQ(inc->sample(0, 5, rng), 1.0);
  EXPECT_DOUBLE_EQ(inc->sample(4, 5, rng), 9.0);
  EXPECT_DOUBLE_EQ(dec->sample(0, 5, rng), 9.0);
  EXPECT_DOUBLE_EQ(dec->sample(4, 5, rng), 1.0);
  // Strictly monotone in between.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_GT(inc->sample(i, 5, rng), inc->sample(i - 1, 5, rng));
    EXPECT_LT(dec->sample(i, 5, rng), dec->sample(i - 1, 5, rng));
  }
}

TEST(Distributions, RampSingleTaskUsesFirstValue) {
  const auto gen = workload::linear_ramp(3.0, 7.0);
  XoshiroSource rng(1);
  EXPECT_DOUBLE_EQ(gen->sample(0, 1, rng), 3.0);
}

TEST(Distributions, BimodalTakesOnlyTwoValues) {
  const auto gen = workload::bimodal(0.5, 2.0, 0.3);
  XoshiroSource rng(3);
  std::size_t hi = 0;
  const std::size_t n = 50000;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = gen->sample(i, n, rng);
    ASSERT_TRUE(v == 0.5 || v == 2.0);
    if (v == 2.0) ++hi;
  }
  EXPECT_NEAR(static_cast<double>(hi) / static_cast<double>(n), 0.3, 0.01);
}

TEST(Distributions, TraceReplaysAndWraps) {
  const auto gen = workload::trace({1.0, 2.0, 3.0});
  XoshiroSource rng(1);
  EXPECT_DOUBLE_EQ(gen->sample(0, 6, rng), 1.0);
  EXPECT_DOUBLE_EQ(gen->sample(1, 6, rng), 2.0);
  EXPECT_DOUBLE_EQ(gen->sample(2, 6, rng), 3.0);
  EXPECT_DOUBLE_EQ(gen->sample(3, 6, rng), 1.0);  // wraps
  EXPECT_DOUBLE_EQ(gen->mean(), 2.0);
}

TEST(Distributions, GenerateIsDeterministicPerSeed) {
  const auto gen = workload::exponential(1.0);
  XoshiroSource a(5), b(5), c(6);
  const auto xs = gen->generate(1000, a);
  const auto ys = gen->generate(1000, b);
  const auto zs = gen->generate(1000, c);
  EXPECT_EQ(xs, ys);
  EXPECT_NE(xs, zs);
}

TEST(Distributions, NormalTruncationKeepsFloor) {
  const auto gen = workload::normal(0.1, 1.0, 0.05);
  XoshiroSource rng(11);
  for (std::size_t i = 0; i < 20000; ++i) {
    ASSERT_GE(gen->sample(i, 20000, rng), 0.05);
  }
}

TEST(FromSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)workload::from_spec("unknown:1.0"), std::invalid_argument);
  EXPECT_THROW((void)workload::from_spec("constant"), std::invalid_argument);
  EXPECT_THROW((void)workload::from_spec("constant:1,2"), std::invalid_argument);
  EXPECT_THROW((void)workload::from_spec("uniform:3.0,1.0"), std::invalid_argument);
  EXPECT_THROW((void)workload::from_spec("exponential:-1"), std::invalid_argument);
  EXPECT_THROW((void)workload::from_spec("bimodal:1,2,1.5"), std::invalid_argument);
  EXPECT_THROW((void)workload::from_spec("constant:abc"), std::exception);
}

TEST(FromSpec, ParsesEveryKind) {
  const char* specs[] = {"constant:1",      "uniform:0.5,1.5", "exponential:2",
                         "normal:1,0.1",    "gamma:2,0.5",     "lognormal:1,0.5",
                         "weibull:1.5,1.0", "bimodal:0.1,1,0.2", "ramp:1,2"};
  for (const char* spec : specs) {
    EXPECT_NO_THROW((void)workload::from_spec(spec)) << spec;
  }
}

TEST(Distributions, ExponentialMatchesInverseCdfShape) {
  // Fraction of samples below the median ln(2)*mu should be ~1/2.
  const auto gen = workload::exponential(2.0);
  XoshiroSource rng(123);
  const double median = 2.0 * std::log(2.0);
  std::size_t below = 0;
  const std::size_t n = 100000;
  for (std::size_t i = 0; i < n; ++i) {
    if (gen->sample(i, n, rng) < median) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / static_cast<double>(n), 0.5, 0.01);
}

// ---------------------------------------------------------------- bulk path

// One spec per from_spec kind.
constexpr const char* kEverySpecKind[] = {
    "constant:1.5",    "uniform:0.5,1.5", "exponential:2",     "normal:1,0.3", "gamma:0.5,2",
    "lognormal:1,0.5", "weibull:1.5,1.0", "bimodal:0.1,1,0.3", "ramp:2,0.1"};
constexpr std::size_t kBulkSizes[] = {0, 1, 2, 7, 8, 9, 4097};

/// A source that overrides only uniform01, so its fill_uniform01 is the
/// interface's default loop.  It draws xoshiro's stream, so its values
/// must also equal the "xoshiro" case's.
class DefaultFillSource final : public RandomSource {
 public:
  explicit DefaultFillSource(std::uint64_t seed) : inner_(seed) {}
  double uniform01() override { return inner_.uniform01(); }
  std::uint64_t next_u64() override { return inner_.next_u64(); }

 private:
  XoshiroSource inner_;
};

std::unique_ptr<RandomSource> make_rng(const char* kind, std::uint64_t seed) {
  if (std::string_view(kind) == "rand48") {
    return std::make_unique<Rand48Source>(static_cast<std::uint32_t>(seed));
  }
  if (std::string_view(kind) == "default-fill") return std::make_unique<DefaultFillSource>(seed);
  return std::make_unique<XoshiroSource>(seed);
}

/// Bitwise: -0.0 vs 0.0 or two NaN payloads would count as different.
void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << where << ", task " << i;
  }
}

TEST(BulkGeneration, EqualsPerSampleGenerationForEveryKindAndSource) {
  for (const char* spec : kEverySpecKind) {
    const auto gen = workload::from_spec(spec);
    for (const char* kind : {"xoshiro", "rand48", "default-fill"}) {
      for (const std::size_t n : kBulkSizes) {
        const std::string where = std::string(spec) + ", " + kind + ", n " + std::to_string(n);
        std::vector<double> per_sample;
        const auto reference = make_rng(kind, 31);
        for (std::size_t i = 0; i < n; ++i) per_sample.push_back(gen->sample(i, n, *reference));

        const auto rng = make_rng(kind, 31);
        std::vector<double> bulk{9.0};  // stale contents must not leak through
        gen->generate_into(bulk, n, *rng);
        expect_same_bits(bulk, per_sample, where + ", vector form");

        const auto span_rng = make_rng(kind, 31);
        std::vector<double> in_place(n, -1.0);
        gen->generate_into(std::span<double>(in_place), *span_rng);
        expect_same_bits(in_place, per_sample, where + ", span form");

        // Both bulk forms leave the stream where per-sample generation does.
        EXPECT_EQ(rng->next_u64(), reference->next_u64()) << where;
      }
    }
  }
}

}  // namespace
