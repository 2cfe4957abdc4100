// The headline contract of the pooled sweep: a multi-threaded
// dls_sweep pass is BYTE-IDENTICAL to the single-threaded pass of the
// same spec -- across seeds, on the mw and the hagerup backend, and
// through the shard/resume recovery paths.  The in-order
// committer and the replica-indexed value arrays are what make this
// hold; this suite is the regression lock on both.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "sweep/stripe.hpp"

namespace {

/// A Table-2-style grid on one backend.  The network is explicitly
/// null so hagerup accepts every cell.
std::string grid_text(std::uint64_t seed, const std::string& backend) {
  return "workload exponential:1.0\ntasks 512\nh 0.5\nlatency 0\nbandwidth inf\nseed " +
         std::to_string(seed) + "\nreplicas 6\nbackend " + backend +
         "\n"
         "sweep technique SS GSS TSS FAC2\nsweep workers 2 4\n";
}

constexpr const char* kBackends[] = {"mw", "hagerup"};

std::string run_threaded(const sweep::Grid& grid, unsigned threads,
                         const std::set<sweep::RecordKey>& done = {}) {
  sweep::SweepRunner::Options options;
  options.threads = threads;
  std::ostringstream out;
  (void)sweep::SweepRunner(options).run(grid, done, out);
  return out.str();
}

TEST(PooledSweepDeterminism, MultiThreadedOutputMatchesSingleThreadedAcrossSeeds) {
  for (const char* backend : kBackends) {
    for (const std::uint64_t seed : {1000003ull, 4242ull}) {
      const sweep::Grid grid = sweep::parse_grid(grid_text(seed, backend));
      const std::string serial = run_threaded(grid, 1);
      EXPECT_EQ(run_threaded(grid, 4), serial) << backend << " seed " << seed;
      EXPECT_EQ(run_threaded(grid, 7), serial) << backend << " seed " << seed;
    }
  }
}

TEST(PooledSweepDeterminism, ThreadedShardsMergeToTheSerialReference) {
  for (const char* backend : kBackends) {
    const sweep::Grid grid = sweep::parse_grid(grid_text(7, backend));
    const std::string reference = run_threaded(grid, 1);

    std::vector<std::vector<std::string>> shards;
    for (std::size_t s = 0; s < 3; ++s) {
      sweep::SweepRunner::Options options;
      options.threads = 4;
      options.shard_index = s;
      options.shard_count = 3;
      std::ostringstream out;
      (void)sweep::SweepRunner(options).run(grid, {}, out);
      std::vector<std::string> lines;
      std::istringstream is(out.str());
      for (std::string line; std::getline(is, line);) lines.push_back(line);
      shards.push_back(std::move(lines));
    }
    std::string merged;
    for (const std::string& line : sweep::merge_records(shards)) merged += line + '\n';
    EXPECT_EQ(merged, reference) << backend;
  }
}

TEST(PooledSweepDeterminism, ThreadedResumeContinuesByteIdentically) {
  for (const char* backend : kBackends) {
    const sweep::Grid grid = sweep::parse_grid(grid_text(99, backend));
    const std::string reference = run_threaded(grid, 1);

    // Truncate a threaded pass deterministically, rescan, resume threaded.
    sweep::SweepRunner::Options truncated;
    truncated.threads = 4;
    truncated.max_cells = 5;
    std::ostringstream first;
    EXPECT_EQ(sweep::SweepRunner(truncated).run(grid, {}, first), 5u);

    std::istringstream rescan(first.str());
    const sweep::ScanResult scanned = sweep::scan_records(rescan);
    EXPECT_EQ(scanned.done.size(), 5u);
    sweep::validate_records_for_grid(grid, scanned.lines);

    std::ostringstream resumed;
    for (const std::string& line : scanned.lines) resumed << line << '\n';
    sweep::SweepRunner::Options rest;
    rest.threads = 4;
    (void)sweep::SweepRunner(rest).run(grid, scanned.done, resumed);
    EXPECT_EQ(resumed.str(), reference) << backend;
  }
}

TEST(PooledSweepDeterminism, WallClockCellsCommitInCanonicalOrder) {
  // The wall-clock backend at 4 threads: runtime cells run their
  // replicas serialized, and records still stream in canonical order
  // (runtime records are wall-clock measurements and not
  // byte-reproducible, so only their presence and order are pinned).
  const sweep::Grid grid = sweep::parse_grid(
      "workload constant:0.0001\ntasks 256\nworkers 2\nh 0.0001\nseed 7\nreplicas 2\n"
      "backend runtime\nsweep technique SS GSS TSS\n");

  std::istringstream is(run_threaded(grid, 4));
  std::vector<sweep::RecordKey> keys;
  for (std::string line; std::getline(is, line);) {
    const auto key = sweep::record_key(line);
    ASSERT_TRUE(key.has_value());
    keys.push_back(*key);
  }
  ASSERT_EQ(keys.size(), grid.cells());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], (sweep::RecordKey{i, "runtime"}));
  }
}

TEST(PooledSweepDeterminism, StripeHelperMatchesTheModularDefinition) {
  // The striped iteration is the single source of shard ownership;
  // pin it to the documented index % count rule.
  const sweep::Grid grid = sweep::parse_grid(grid_text(5, "mw"));  // 8 cells
  for (std::size_t count = 1; count <= 9; ++count) {
    std::vector<std::size_t> owned_total;
    for (std::size_t shard = 0; shard < count; ++shard) {
      std::vector<std::size_t> indices;
      sweep::for_each_owned_index(grid, shard, count, [&](std::size_t index) {
        indices.push_back(index);
        return true;
      });
      EXPECT_EQ(indices.size(), sweep::owned_index_count(grid, shard, count));
      for (const std::size_t index : indices) EXPECT_EQ(index % count, shard);
      // Canonical order within the shard.
      for (std::size_t i = 1; i < indices.size(); ++i) {
        EXPECT_LT(indices[i - 1], indices[i]);
      }
      owned_total.insert(owned_total.end(), indices.begin(), indices.end());
    }
    EXPECT_EQ(owned_total.size(), grid.cells());  // a partition
  }
}

}  // namespace
