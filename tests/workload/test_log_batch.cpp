// workload::log_batch returns std::log's bits, on the AVX-512 kernel
// and on the dispatched entry point, for 10^7 seeded inputs in each of
// four classes plus the special values; and the committed table holds
// what tools/gen_log_table.py says it does.
//
// The kernel keeps its own result only outside a 1/32-ulp band around
// each rounding midpoint.  That band is the narrowest power of two that
// glibc's 0.519-ulp log stays inside: with a 1/1024-ulp band, 3627 of
// the 10^7 generator inputs below mismatch.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "workload/log_batch.hpp"
#include "workload/random_source.hpp"

namespace {

using workload::XoshiroSource;

constexpr std::size_t kPerClass = 10'000'000;
constexpr std::size_t kBlock = 1 << 16;

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a (0x%016llx)", v,
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// The CPU feature the kernel needs and this CPU lacks ("" if none).
std::string missing_kernel_feature() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) return "AVX-512F";
  if (!__builtin_cpu_supports("avx512dq")) return "AVX-512DQ";
  if (!__builtin_cpu_supports("fma")) return "FMA";
  return "";
#else
  return "an x86-64 CPU";
#endif
}

/// Runs both paths over input blocks and counts the results whose bits
/// differ from std::log's (the kernel path only where the CPU has it).
class BitCheck {
 public:
  void run(std::span<const double> in) {
    want_.resize(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) want_[i] = std::log(in[i]);
    dispatched_.run(workload::log_batch, in, want_);
    if (has_kernel_) kernel_.run(workload::log_batch_avx512, in, want_);
    inputs_ += in.size();
  }

  /// Call last: expects no mismatch, then skips if the kernel never ran.
  void finish() const {
    EXPECT_EQ(dispatched_.mismatches, 0u) << "dispatched path, of " << inputs_ << " inputs";
    EXPECT_EQ(kernel_.mismatches, 0u) << "kernel path, of " << inputs_ << " inputs";
    if (!has_kernel_) {
      GTEST_SKIP() << "kernel path not run: the CPU lacks " << missing_kernel_feature();
    }
  }

 private:
  struct Path {
    std::vector<double> out;
    std::size_t mismatches = 0;

    void run(void (*path)(std::span<double>), std::span<const double> in,
             std::span<const double> want) {
      out.assign(in.begin(), in.end());
      path(out);
      for (std::size_t i = 0; i < in.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(out[i]) == std::bit_cast<std::uint64_t>(want[i])) continue;
        if (++mismatches <= 5) {
          ADD_FAILURE() << "log(" << hex(in[i]) << ") = " << hex(out[i]) << ", std::log gives "
                        << hex(want[i]);
        }
      }
    }
  };

  const bool has_kernel_ = workload::log_batch_has_kernel();
  std::vector<double> want_;
  Path dispatched_, kernel_;
  std::size_t inputs_ = 0;
};

/// Feeds kPerClass inputs from `fill(block)` through both paths.
template <typename Fill>
void check_class(Fill fill) {
  BitCheck check;
  std::vector<double> block(kBlock);
  for (std::size_t done = 0; done < kPerClass; done += kBlock) {
    fill(block);
    check.run(block);
  }
  check.finish();
}

/// A uniform double in [0, 1) with 53 random bits.
double unit(XoshiroSource& rng) { return static_cast<double>(rng.next_u64() >> 11) * 0x1p-53; }

TEST(LogBatch, GeneratorInputsOneMinusU) {
  // Exactly what Exponential feeds it: 1 - u for xoshiro's u = k 2^-53.
  XoshiroSource rng(20170529u);
  check_class([&](std::vector<double>& block) {
    rng.fill_uniform01(block.data(), block.size());
    for (double& v : block) v = 1.0 - v;
  });
}

TEST(LogBatch, LogUniformDistanceFromOne) {
  // 1 - k 2^-53 and 1 + k 2^-52 for k log-uniform in [1, 2^52]: the
  // inputs whose log is tiny, where only the table's invc = 1 rows and
  // the polynomial carry the result.
  XoshiroSource rng(7);
  check_class([&](std::vector<double>& block) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      const double k = std::floor(std::exp2(52.0 * unit(rng)));
      block[i] = (i % 2 == 0) ? 1.0 - k * 0x1p-53 : 1.0 + k * 0x1p-52;
    }
  });
}

TEST(LogBatch, TableIntervalEdges) {
  // Every interval edge z (256 intervals of [0.6875, 1.375)) at every
  // exponent 2^0 ... 2^-60, +-2 ulp; then seeded inputs within 2^20
  // ulp of a random edge at a random exponent.
  std::vector<double> edges;
  for (int i = 0; i <= 160; ++i) edges.push_back(0.6875 + i / 512.0);
  for (int i = 1; i <= 96; ++i) edges.push_back(1.0 + i / 256.0);
  std::vector<double> exhaustive;
  for (int e = 0; e >= -60; --e) {
    for (const double edge : edges) {
      const auto bits = std::bit_cast<std::int64_t>(std::ldexp(edge, e));
      for (std::int64_t d = -2; d <= 2; ++d) exhaustive.push_back(std::bit_cast<double>(bits + d));
    }
  }
  std::size_t next = 0;
  XoshiroSource rng(11);
  check_class([&](std::vector<double>& block) {
    for (double& v : block) {
      if (next < exhaustive.size()) {
        v = exhaustive[next++];
        continue;
      }
      const std::uint64_t r = rng.next_u64();
      const double edge = edges[r % edges.size()];
      const int e = -static_cast<int>((r >> 16) % 61);
      const std::int64_t width = std::int64_t{1} << ((r >> 24) % 21);  // up to 2^20 ulp
      const std::int64_t offset = static_cast<std::int64_t>(r >> 32) % (2 * width + 1) - width;
      v = std::bit_cast<double>(std::bit_cast<std::int64_t>(std::ldexp(edge, e)) + offset);
    }
  });
}

TEST(LogBatch, ArbitraryPositiveNormals) {
  XoshiroSource rng(13);
  check_class([&](std::vector<double>& block) {
    for (double& v : block) {
      const std::uint64_t r = rng.next_u64();
      const std::uint64_t exponent = 1 + (r >> 52) % 2046;  // 1 ... 2046: normal, finite
      v = std::bit_cast<double>((exponent << 52) | (r & 0x000fffffffffffff));
    }
  });
}

TEST(LogBatch, SpecialValuesTakeLibmsBits) {
  // Non-positive-normal inputs, and 1.0 (log 0 has no ulp to band), go
  // to std::log; 2^-53 and the smallest normal are the extremes of the
  // generator's and the kernel's range.  Each value sits at every lane
  // of a 64-block and in the scalar tail.
  const double specials[] = {1.0,
                             1.0 - 0x1p-53,
                             0x1p-53,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::denorm_min(),
                             0x1.fffffffffffffp-1023,
                             0x1p-1050,
                             0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             -1.0,
                             -0x1p-1074,
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::max()};
  BitCheck check;
  for (const double special : specials) {
    for (std::size_t lane = 0; lane < 71; ++lane) {
      std::vector<double> block(71, 0.75);
      block[lane] = special;
      check.run(block);
    }
  }
  check.finish();
}

TEST(LogBatch, CommittedTableMatchesLogl) {
  // invc is exact 1 on the two intervals that touch 1; elsewhere
  // logc_hi + logc_lo = -log(invc) within 2^-62 relative (logl is good
  // to about 2^-63), the pair is normalised, and z invc - 1 stays
  // within the 2^-8 the kernel's polynomial is sized for.
  const auto& table = workload::kLogTable;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const workload::LogTableEntry& entry = table[i];
    const long double z_lo = i < 160 ? 0.6875L + i / 512.0L : 1.0L + (i - 160) / 256.0L;
    const long double z_hi = z_lo + (i < 160 ? 1 / 512.0L : 1 / 256.0L);
    if (i == 159 || i == 160) {
      EXPECT_EQ(entry.invc, 1.0) << "entry " << i;
      EXPECT_EQ(entry.logc_hi, 0.0) << "entry " << i;
      EXPECT_EQ(entry.logc_lo, 0.0) << "entry " << i;
    } else {
      const long double want = -std::log(static_cast<long double>(entry.invc));
      const long double got = static_cast<long double>(entry.logc_hi) + entry.logc_lo;
      EXPECT_LE(std::fabs(got - want), std::fabs(want) * 0x1p-62L) << "entry " << i;
      EXPECT_LE(std::fabs(entry.logc_lo), std::ldexp(1.0, std::ilogb(entry.logc_hi) - 53))
          << "entry " << i;
    }
    for (const long double z : {z_lo, z_hi}) {
      EXPECT_LE(std::fabs(z * entry.invc - 1), 0x1p-8L) << "entry " << i << " at z = " << double(z);
    }
  }
}

}  // namespace
