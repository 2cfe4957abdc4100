#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace hagerup {

/// The direct simulator's worker queue: a tournament (loser) tree over
/// the P workers' next-free times.
///
/// It pops in exactly the order of a binary heap keyed on (time,
/// worker) -- earliest time first, lower worker index on ties -- with
/// retired workers after every live one.  Times compare as doubles, so
/// -0.0 ties with +0.0 and the worker index decides; a -0.0 key is
/// stored as +0.0 (the simulator never produces a -0.0 time, so what it
/// pops is bit-identical either way).  Keys must not be NaN (the heap's
/// order is undefined there too).
///
/// Layout: the leaves are padded to a power of two L >= P, and node n
/// in [1, L) stores the loser of the match played at n; node 0 holds
/// the overall winner.  A retired worker (and every padding leaf)
/// carries the key (+inf, L + worker), which loses to any live key,
/// including a live +inf.  Updating the winner's key replays the one
/// fixed path from its leaf to the root: log2(L) matches, each one
/// double comparison pair, one index comparison and branch-free
/// selects (min/max for the times, a mask for the indices).  A heap's
/// sift instead branches on the keys and mispredicts.
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
    nodes_[0] = initial(0, workers);
    for (std::size_t n = 1; n < leaves_; ++n) {
      std::size_t leaf = 2 * n + 1;
      while (leaf < leaves_) leaf *= 2;
      nodes_[n] = initial(leaf - leaves_, workers);
    }
  }

  /// Whether every worker has retired.
  [[nodiscard]] bool empty() const { return nodes_[0].id >= leaves_; }

  /// The next worker to pop and the time it becomes free (requires
  /// !empty()).
  [[nodiscard]] std::size_t top() const { return nodes_[0].id; }
  [[nodiscard]] double top_time() const { return nodes_[0].time; }

  /// The top worker is next free at `time` (any value but NaN).
  void replace_top(double time) { replay(time, nodes_[0].id); }

  /// The top worker leaves the tree for good.
  void retire_top() { replay(kInf, leaves_ + nodes_[0].id); }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct Node {
    double time;
    std::size_t id;  ///< the worker index; L + worker once retired
  };

  [[nodiscard]] Node initial(std::size_t worker, std::size_t workers) const {
    return worker < workers ? Node{0.0, worker} : Node{kInf, leaves_ + worker};
  }

  void replay(double time, std::size_t id) {
    time += 0.0;  // -0.0 -> +0.0: equal keys then have equal bits
    // A retired id is L + worker < 2L, so the mask recovers the leaf.
    for (std::size_t n = (leaves_ + (id & (leaves_ - 1))) >> 1; n > 0; n >>= 1) {
      const Node other = nodes_[n];
      // All ones if `other` wins the match; bitwise, not short-circuit,
      // so no branch depends on the keys.
      const std::size_t other_wins =
          0 - static_cast<std::size_t>((other.time < time) |
                                       ((other.time <= time) & (other.id < id)));
      nodes_[n] = Node{std::max(other.time, time), (id & other_wins) | (other.id & ~other_wins)};
      id = (other.id & other_wins) | (id & ~other_wins);
      time = std::min(other.time, time);
    }
    nodes_[0] = Node{time, id};
  }

  std::size_t leaves_ = 1;
  std::vector<Node> nodes_{Node{kInf, 1}};  ///< empty until reset()
};

}  // namespace hagerup
