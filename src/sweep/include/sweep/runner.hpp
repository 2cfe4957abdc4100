#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <set>
#include <string_view>

#include "exec/batch.hpp"
#include "sweep/grid.hpp"
#include "sweep/record.hpp"

namespace sweep {

/// Shards a grid over exec::BatchRunner and streams one JSONL record
/// per completed cell (see sweep/record.hpp).  Cells are visited in
/// canonical index order.
///
/// The owned worklist runs in windows of up to 1024 cells, and every
/// (cell x replica) of a window is flattened into ONE
/// claimable index space on the persistent thread pool, so the pool
/// parallelizes *across* cells, not just within one: the last replicas
/// of cell k and the first replicas of cell k+1 run concurrently, and
/// one BatchRunner (with its per-slot backend engine caches) serves
/// the entire pass.  Wall-clock `runtime` cells run in cell order with
/// their replicas serialized (their timings are the measurement; see
/// exec::BatchRunner).
///
/// Output order is untouched by the parallelism: an in-order committer
/// buffers out-of-order cell completions and writes each record in
/// canonical order, flushed as soon as its turn arrives -- so a
/// multi-threaded sweep's output stream is byte-identical to the
/// single-threaded run of the same spec, and the resume/shard/merge
/// invariants hold unchanged.  Combined with scan_records this makes a
/// sweep resumable: pass the scanned `done` set and completed cells
/// are skipped instead of recomputed.  (A kill now loses the cells in
/// flight -- up to the thread count -- instead of exactly one; resume
/// recomputes them.)
class SweepRunner {
 public:
  struct Options {
    /// Width of the thread pool the flattened (cell x replica) space
    /// is claimed from; 0 = the cell specs' `threads` key (which
    /// itself defaults to the hardware concurrency).
    unsigned threads = 0;
    /// This process runs the cells with index % shard_count ==
    /// shard_index -- round-robin, so every shard sees a mix of cheap
    /// and expensive cells of a grid ordered by size.  See
    /// sweep/stripe.hpp.
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    /// Stop after computing this many new cells (0 = no limit).  Cells
    /// skipped as already done do NOT count, so resuming a truncated
    /// shard continues at the first uncomputed cell.  The deterministic
    /// stand-in for "the machine died mid-sweep" in the resume tests
    /// and CI.
    std::size_t max_cells = 0;
  };

  /// Progress callback, invoked once per owned cell.  Skip events fire
  /// during the worklist scan; computed events fire in canonical cell
  /// order as records are committed.
  struct CellEvent {
    std::size_t cell = 0;          ///< cell index
    std::string_view backend;      ///< the grid's backend
    std::size_t cells_total = 0;   ///< grid size
    bool skipped = false;          ///< already present in the output
  };
  using Observer = std::function<void(const CellEvent&)>;

  SweepRunner() = default;
  explicit SweepRunner(Options options);

  [[nodiscard]] const Options& options() const { return options_; }

  /// Number of cells this runner's shard owns in `grid` (the
  /// denominator of a per-shard progress display).
  [[nodiscard]] std::size_t owned_cells(const Grid& grid) const;

  /// Run the grid, skipping records in `done` (and cells owned by
  /// other shards); append one record line per computed cell to `out`.
  /// Returns the number of cells computed.  Consecutive run() calls on
  /// one SweepRunner reuse the same BatchRunner, so the per-slot
  /// backend engines stay warm across passes.
  std::size_t run(const Grid& grid, const std::set<RecordKey>& done, std::ostream& out,
                  const Observer& observer = {}) const;

 private:
  [[nodiscard]] exec::BatchRunner& batch_runner(unsigned threads) const;

  Options options_;
  /// The persistent batch runner (per-slot backend caches live here);
  /// rebuilt only when the resolved thread count changes.
  mutable std::unique_ptr<exec::BatchRunner> batch_;
  mutable unsigned batch_threads_ = 0;
};

}  // namespace sweep
