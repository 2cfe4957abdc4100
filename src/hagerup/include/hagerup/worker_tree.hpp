#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hagerup {

/// The direct simulator's worker queue: a tournament (loser) tree over
/// the P workers' next-free times.
///
/// It pops in exactly the order of a binary heap keyed on (time,
/// worker) -- earliest time first, lower worker index on ties -- with
/// retired workers after every live one.  Times compare as doubles, so
/// -0.0 ties with +0.0 and the worker index decides; a -0.0 time is
/// stored as +0.0 (the simulator never produces a -0.0 time, so what it
/// pops is bit-identical either way).  Times must not be NaN (the
/// heap's order is undefined there too).
///
/// Each key is one unsigned 128-bit integer: the high half maps the
/// time's bits so that integer order is double order (a negative time
/// flips every bit, a non-negative one sets the sign bit), the low half
/// is the worker index, L + worker once retired.  A match is then one
/// integer comparison and two selects, with no branch on the keys (a
/// heap's sift branches on them and mispredicts).
///
/// Layout: the leaves are padded to a power of two L >= P, and node n
/// in [1, L) stores the loser of the match played at n.  The winner
/// lives decoded in top_ and top_time_.  A retired worker (and every
/// padding leaf) carries the key (+inf, L + worker), which loses to any
/// live key, including a live +inf.  Updating the winner's key replays
/// the one fixed path from its leaf to the root: log2(L) matches.
class WorkerTree {
 public:
  /// P workers, all free at time 0.  Reuses the node storage.
  void reset(std::size_t workers) {
    leaves_ = 1;
    while (leaves_ < workers) leaves_ <<= 1;
    nodes_.resize(leaves_);
    // All live keys tie at 0 and the padding sits at the end, so the
    // winner of every subtree is its leftmost leaf: node n lost to the
    // leftmost leaf of its right subtree, and worker 0 won overall.
    for (std::size_t n = 1; n < leaves_; ++n) {
      std::size_t leaf = 2 * n + 1;
      while (leaf < leaves_) leaf *= 2;
      const std::size_t worker = leaf - leaves_;
      nodes_[n] = worker < workers ? key(0.0, worker) : retired(worker);
    }
    top_ = workers > 0 ? 0 : leaves_;
    top_time_ = 0.0;
  }

  /// Whether every worker has retired.
  [[nodiscard]] bool empty() const { return top_ >= leaves_; }

  /// The next worker to pop and the time it becomes free (requires
  /// !empty()).
  [[nodiscard]] std::size_t top() const { return top_; }
  [[nodiscard]] double top_time() const { return top_time_; }

  /// The top worker is next free at `time` (any value but NaN).
  void replace_top(double time) { replay(key(time, top_)); }

  /// The top worker leaves the tree for good.
  void retire_top() { replay(retired(top_)); }

 private:
  __extension__ using Key = unsigned __int128;

  static constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  /// The high half of +inf's key (and of every retired key).
  static constexpr std::uint64_t kInfHigh = 0x7ff0000000000000u | kSign;

  static Key key(double time, std::size_t worker) {
    time += 0.0;  // -0.0 -> +0.0: equal times then have equal bits
    const auto bits = std::bit_cast<std::uint64_t>(time);
    const std::uint64_t high = (bits & kSign) != 0 ? ~bits : bits | kSign;
    return Key{high} << 64 | worker;
  }

  [[nodiscard]] Key retired(std::size_t worker) const {
    return Key{kInfHigh} << 64 | (leaves_ + worker);
  }

  // Out of line: inlined into hagerup::run, GCC keeps the replayed key
  // in a stack slot and every match pays a store-to-load forward.
  [[gnu::noinline]] void replay(Key winner) {
    Key* const nodes = nodes_.data();
    for (std::size_t n = (leaves_ + top_) >> 1; n > 0; n >>= 1) {
      const Key other = nodes[n];
      const bool other_wins = other < winner;
      nodes[n] = other_wins ? winner : other;
      winner = other_wins ? other : winner;
    }
    top_ = static_cast<std::size_t>(winner);
    const auto high = static_cast<std::uint64_t>(winner >> 64);
    top_time_ = std::bit_cast<double>((high & kSign) != 0 ? high ^ kSign : ~high);
  }

  std::size_t leaves_ = 1;
  std::size_t top_ = 1;  ///< the winner's worker index; L + worker once retired
  double top_time_ = 0.0;
  std::vector<Key> nodes_;  ///< losers at [1, L); node 0 is unused
};

}  // namespace hagerup
