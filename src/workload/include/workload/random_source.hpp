#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "workload/rand48.hpp"

namespace workload {

/// Uniform random source abstraction.
///
/// Two implementations are provided: Rand48Source replicates the
/// generator used by the BOLD publication's simulator; XoshiroSource is
/// a high-quality modern generator used everywhere faithfulness to the
/// 1997 experiments is not required.  All distribution code draws
/// through this interface so an experiment can switch generator without
/// touching its workload definition.
class RandomSource {
 public:
  virtual ~RandomSource() = default;
  RandomSource() = default;
  RandomSource(const RandomSource&) = delete;
  RandomSource& operator=(const RandomSource&) = delete;

  /// Uniformly distributed double in [0, 1).
  virtual double uniform01() = 0;
  /// out[i] = the i-th of the next n uniform01() draws, leaving the
  /// state where n uniform01() calls leave it.  One dispatch per
  /// buffer: the generators override it with a tight loop on their own
  /// inline step, so the state stays in registers.
  virtual void fill_uniform01(double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = uniform01();
  }
  /// Uniformly distributed 64-bit value.
  virtual std::uint64_t next_u64() = 0;
};

/// RandomSource view over the POSIX rand48 recurrence.
class Rand48Source final : public RandomSource {
 public:
  explicit Rand48Source(std::uint32_t seed) : gen_(seed) {}

  double uniform01() override { return gen_.drand48(); }
  void fill_uniform01(double* out, std::size_t n) override {
    Rand48 gen = gen_;
    for (std::size_t i = 0; i < n; ++i) out[i] = gen.drand48();
    gen_ = gen;
  }
  std::uint64_t next_u64() override {
    // Two 31-bit draws + one 2-bit draw would be wasteful; compose two
    // mrand48 words, which exercise the full 32 high bits of the state.
    const auto hi = static_cast<std::uint32_t>(gen_.mrand48());
    const auto lo = static_cast<std::uint32_t>(gen_.mrand48());
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
  }

 private:
  Rand48 gen_;
};

/// xoshiro256** by Blackman & Vigna, seeded via splitmix64.
class XoshiroSource final : public RandomSource {
 public:
  explicit XoshiroSource(std::uint64_t seed);

  double uniform01() override { return to_unit(step(s_)); }
  void fill_uniform01(double* out, std::size_t n) override {
    std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    for (std::size_t i = 0; i < n; ++i) out[i] = to_unit(step(s));
    for (int k = 0; k < 4; ++k) s_[k] = s[k];
  }
  std::uint64_t next_u64() override { return step(s_); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  // Inline: the xoshiro step must not cost a call of its own (the
  // per-task draw is on the simulation hot path).
  static std::uint64_t step(std::uint64_t* s) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
  // 53 high-quality bits -> [0,1).
  static double to_unit(std::uint64_t x) { return static_cast<double>(x >> 11) * 0x1p-53; }

  std::uint64_t s_[4];
};

}  // namespace workload
