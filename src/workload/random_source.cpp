#include "workload/random_source.hpp"

namespace workload {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97f4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

XoshiroSource::XoshiroSource(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  // A state of all zeros would be a fixed point; splitmix64 cannot
  // produce four zero words from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

}  // namespace workload
