// WorkerTree against the std::priority_queue it replaced: over seeded
// random streams of pops, key updates and retirements, the tree must
// pop exactly the heap's (time, worker) sequence.  The streams cover
// heavy ties, negative and signed-zero keys, +inf keys, P = 1 and
// non-power-of-two P, and one tree reused across every stream (reset()
// growing and shrinking the same storage).  One case drives the
// extremes of the tree's integer key map (infinities, DBL_MAX,
// subnormals, signed zeros) at P = 1 and around a power of two.

#include <gtest/gtest.h>

#include <cstdint>
#include <cfloat>
#include <cstring>
#include <limits>
#include <queue>
#include <vector>

#include "hagerup/worker_tree.hpp"

namespace {

struct Entry {
  double time;
  std::size_t worker;
};

/// The order the direct simulator's heap used.
struct Later {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.worker > b.worker;
  }
};

using Heap = std::priority_queue<Entry, std::vector<Entry>, Later>;

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// splitmix64: a reproducible stream per seed.
struct Mix {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// A new key for a worker popped at `now`, in one of four regimes.
double next_key(Mix& mix, int regime, double now) {
  static constexpr double kTies[] = {-2.0, -1.0, -0.0, 0.0, 1.0, 1.0, 3.0};
  switch (regime) {
    case 0:  // few distinct values, signed zeros included: ties everywhere
      return kTies[mix.below(sizeof kTies / sizeof kTies[0])];
    case 1:  // the simulator's shape: monotone, small integer steps
      return now + static_cast<double>(mix.below(3));
    case 2:  // arbitrary doubles around zero, either sign
      return (static_cast<double>(mix.next() >> 11) * 0x1p-53 - 0.5) * 8.0;
    default:  // mostly finite, sometimes +inf
      return mix.below(8) == 0 ? std::numeric_limits<double>::infinity()
                               : now + static_cast<double>(mix.below(5)) * 0.25;
  }
}

/// Drive one stream through both structures; returns the pop count.
std::size_t check_stream(hagerup::WorkerTree& tree, std::uint64_t seed) {
  Mix mix{seed};
  static constexpr std::size_t kSizes[] = {1, 2, 3, 5, 7, 8, 13, 16, 31, 33, 100, 1000};
  const std::size_t p = mix.below(4) == 0 ? kSizes[mix.below(sizeof kSizes / sizeof kSizes[0])]
                                          : 1 + mix.below(40);
  const int regime = static_cast<int>(mix.below(4));
  // Per-stream retirement odds (1 in retire_every): some streams retire
  // almost at once, some keep every worker busy for a long time.
  const std::size_t retire_every = 1 + mix.below(12);
  const std::size_t budget = 6 * p + 20;

  tree.reset(p);
  Heap heap;
  for (std::size_t w = 0; w < p; ++w) heap.push(Entry{0.0, w});

  std::size_t pops = 0;
  while (!heap.empty()) {
    EXPECT_FALSE(tree.empty()) << "seed " << seed << " pop " << pops;
    if (tree.empty()) return pops;
    const Entry expected = heap.top();
    heap.pop();
    EXPECT_EQ(tree.top(), expected.worker) << "seed " << seed << " pop " << pops;
    EXPECT_EQ(tree.top_time(), expected.time) << "seed " << seed << " pop " << pops;
    if (tree.top() != expected.worker) return pops;
    ++pops;
    if (pops > budget || mix.below(retire_every) == 0) {
      tree.retire_top();
    } else {
      const double key = next_key(mix, regime, expected.time);
      tree.replace_top(key);
      heap.push(Entry{key, expected.worker});
    }
  }
  EXPECT_TRUE(tree.empty()) << "seed " << seed;
  return pops;
}

TEST(WorkerTree, MatchesBinaryHeapOverSeededStreams) {
  hagerup::WorkerTree tree;
  std::size_t pops = 0;
  for (std::uint64_t seed = 1; seed <= 12000; ++seed) {
    pops += check_stream(tree, seed);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(pops, 500000u);  // the streams are not trivially short
}

TEST(WorkerTree, FreshTreeStartsInWorkerOrder) {
  for (const std::size_t p : {1u, 2u, 6u, 8u, 1000u, 1024u}) {
    hagerup::WorkerTree tree;
    tree.reset(p);
    for (std::size_t w = 0; w < p; ++w) {
      ASSERT_FALSE(tree.empty());
      EXPECT_EQ(tree.top(), w);
      EXPECT_EQ(tree.top_time(), 0.0);
      tree.retire_top();
    }
    EXPECT_TRUE(tree.empty());
  }
}

TEST(WorkerTree, SignedZerosTieAndWorkerIndexDecides) {
  // As bit patterns -0.0 (sign bit set) would order after +0.0; as
  // doubles they are equal, so the lower worker index must win.
  hagerup::WorkerTree tree;
  tree.reset(2);
  tree.replace_top(-0.0);  // worker 0 at -0.0, worker 1 at +0.0
  EXPECT_EQ(tree.top(), 0u);
  tree.replace_top(1.0);
  EXPECT_EQ(tree.top(), 1u);
  tree.replace_top(-0.0);  // worker 1 at -0.0, below worker 0's 1.0
  EXPECT_EQ(tree.top(), 1u);
  EXPECT_EQ(bits(tree.top_time()), bits(0.0));  // stored as +0.0
  tree.replace_top(1.0);  // both at 1.0
  EXPECT_EQ(tree.top(), 0u);
}

TEST(WorkerTree, LiveInfinityPopsBeforeRetirement) {
  hagerup::WorkerTree tree;
  tree.reset(3);
  tree.retire_top();  // worker 0 retires
  tree.replace_top(std::numeric_limits<double>::infinity());  // worker 1
  tree.replace_top(std::numeric_limits<double>::infinity());  // worker 2
  ASSERT_FALSE(tree.empty());
  EXPECT_EQ(tree.top(), 1u);
  tree.retire_top();
  ASSERT_FALSE(tree.empty());
  EXPECT_EQ(tree.top(), 2u);
  tree.retire_top();
  EXPECT_TRUE(tree.empty());
}

TEST(WorkerTree, KeyMapExtremesPopInHeapOrder) {
  // Every extreme of the time-to-integer map: each negative must order
  // below the zeros (the sign flip), -0 must tie +0, subnormals must
  // sit next to zero, and a live +inf must pop before a retired worker.
  // The first pops hand these out in mixed orders (worker 0 gets
  // DBL_MAX, so ordering workers before times shows at once); every
  // later pop retires, so the +inf workers pop last, among retired
  // ones.  top_time() must return the bits replayed, -0 as +0.  (Two
  // negatives never share the tree: a new one is always the top's.)
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMin = std::numeric_limits<double>::denorm_min();
  static constexpr double kEdges[] = {DBL_MAX, -0.0, kInf,    -kMin, kMin,     -kInf, 0.0, -DBL_MAX,
                                      -DBL_MAX, 0.0,  -kInf, kMin, -kMin, kInf, -0.0, DBL_MAX};
  hagerup::WorkerTree tree;
  for (const std::size_t p : {1u, 1024u, 1025u}) {
    tree.reset(p);
    Heap heap;
    for (std::size_t w = 0; w < p; ++w) heap.push(Entry{0.0, w});
    std::size_t pops = 0;
    while (!heap.empty()) {
      ASSERT_FALSE(tree.empty()) << "P " << p << " pop " << pops;
      const Entry expected = heap.top();
      heap.pop();
      ASSERT_EQ(tree.top(), expected.worker) << "P " << p << " pop " << pops;
      ASSERT_EQ(bits(tree.top_time()), bits(expected.time + 0.0)) << "P " << p << " pop " << pops;
      if (pops < sizeof kEdges / sizeof kEdges[0]) {
        tree.replace_top(kEdges[pops]);
        heap.push(Entry{kEdges[pops], expected.worker});
      } else {
        tree.retire_top();
      }
      ++pops;
    }
    EXPECT_TRUE(tree.empty()) << "P " << p;
    EXPECT_EQ(pops, p + sizeof kEdges / sizeof kEdges[0]);
  }
}

TEST(WorkerTree, DefaultConstructedIsEmpty) {
  const hagerup::WorkerTree tree;
  EXPECT_TRUE(tree.empty());
}

}  // namespace
