#include "sweep/runner.hpp"

#include <algorithm>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/thread_annotations.hpp"
#include "sweep/record.hpp"
#include "sweep/stripe.hpp"

namespace sweep {
namespace {

/// Pass 2's ordered write stage.  Completions land via commit() in any
/// thread order; every record is written and flushed in canonical slot
/// order the moment its turn arrives, so the output byte stream is
/// identical to a single-threaded run.  Rendering stays in the caller
/// (it touches only j-local data and is the expensive part) -- only the
/// frontier bookkeeping and the ordered write serialize here.  The
/// observer fires under the lock too: committed-cell events must leave
/// in frontier order.
class InOrderCommitter {
 public:
  /// `cells` is indexed by window slot and must outlive the committer.
  InOrderCommitter(std::ostream& out, std::span<const Cell> cells,
                   const SweepRunner::Observer& observer, std::size_t total)
      : out_(&out),
        cells_(cells),
        observer_(observer),
        total_(total),
        rendered_(cells.size()),
        ready_(cells.size(), false) {}

  /// Install the ALREADY-RENDERED record for window slot `j`, then
  /// write every consecutive ready record at the frontier.
  void commit(std::size_t j, std::string line) DLS_EXCLUDES(mutex_) {
    const support::LockGuard lock(mutex_);
    rendered_[j] = std::move(line);
    ready_[j] = true;
    while (frontier_ < ready_.size() && ready_[frontier_]) {
      *out_ << rendered_[frontier_] << '\n' << std::flush;
      if (!*out_) {
        // A full disk or write error must not let the sweep report
        // success over a truncated output.
        throw std::runtime_error("sweep: writing the record for cell " +
                                 std::to_string(cells_[frontier_].index) +
                                 " failed (disk full?)");
      }
      rendered_[frontier_].clear();
      rendered_[frontier_].shrink_to_fit();
      if (observer_) {
        observer_(SweepRunner::CellEvent{cells_[frontier_].index, total_, /*skipped=*/false});
      }
      ++frontier_;
    }
  }

 private:
  std::ostream* const out_ DLS_PT_GUARDED_BY(mutex_);
  const std::span<const Cell> cells_;
  const SweepRunner::Observer& observer_;
  const std::size_t total_;
  support::Mutex mutex_;
  std::vector<std::string> rendered_ DLS_GUARDED_BY(mutex_);
  std::vector<bool> ready_ DLS_GUARDED_BY(mutex_);
  std::size_t frontier_ DLS_GUARDED_BY(mutex_) = 0;
};

}  // namespace

SweepRunner::SweepRunner(Options options) : options_(options) {
  if (options_.shard_count == 0) {
    throw std::invalid_argument("SweepRunner: shard_count must be >= 1");
  }
  if (options_.shard_index >= options_.shard_count) {
    throw std::invalid_argument("SweepRunner: shard_index " +
                                std::to_string(options_.shard_index) +
                                " out of range for shard_count " +
                                std::to_string(options_.shard_count));
  }
}

std::size_t SweepRunner::owned_cells(const Grid& grid) const {
  return owned_index_count(grid, options_.shard_index, options_.shard_count);
}

exec::BatchRunner& SweepRunner::batch_runner(unsigned threads) const {
  if (batch_ == nullptr || batch_threads_ != threads) {
    exec::BatchRunner::Options batch_options;
    batch_options.threads = threads;
    batch_ = std::make_unique<exec::BatchRunner>(batch_options);
    batch_threads_ = threads;
  }
  return *batch_;
}

std::size_t SweepRunner::run(const Grid& grid, const std::set<std::size_t>& done,
                             std::ostream& out, const Observer& observer) const {
  const std::size_t total = grid.cells();

  // Pass 1 -- build the worklist: walk the owned stripe in canonical
  // order, announce skips, and stop at the max_cells budget (at the
  // first *uncomputed* cell past it, exactly like the serial runner:
  // a resumed, previously truncated shard continues where it left off).
  std::vector<std::size_t> work;  // cell indices to compute
  for_each_owned_index(grid, options_.shard_index, options_.shard_count,
                       [&](std::size_t index) {
                         if (done.contains(index)) {
                           if (observer) observer(CellEvent{index, total, /*skipped=*/true});
                           return true;
                         }
                         if (options_.max_cells != 0 && work.size() >= options_.max_cells) {
                           return false;
                         }
                         work.push_back(index);
                         return true;
                       });
  if (work.empty()) return 0;

  // Pass 2 -- run the worklist in WINDOWS, each a flattened
  // (cell x replica) parallel batch with an in-order committer: within
  // a window, completions arrive in any order but every record is
  // rendered, written and flushed in canonical order the moment its
  // turn arrives; windows themselves run back to back in canonical
  // order -- so the byte stream (and the resume guarantee that a
  // prefix of it is valid) is identical to a single-threaded run.
  //
  // Windows are capped at kWindowCells so the expanded cells, jobs and
  // rendered-record buffers stay O(window), not O(owned cells) -- a
  // million-cell shard must not materialize a million ExperimentSpecs
  // before its first record lands.  Wall-clock (runtime) cells need no
  // window of their own: the batch runner completes them in job order.
  constexpr std::size_t kWindowCells = 1024;
  const RecordRenderer renderer(grid);

  std::size_t window_begin = 0;
  while (window_begin < work.size()) {
    const std::size_t window_end = std::min(work.size(), window_begin + kWindowCells);
    const std::size_t count = window_end - window_begin;

    // Expand this window's cells and jobs (lazily -- see above).
    std::vector<Cell> cells;
    std::vector<exec::BatchJob> jobs;
    cells.reserve(count);
    jobs.reserve(count);
    unsigned spec_threads = 0;
    bool any_default_threads = false;
    for (std::size_t w = window_begin; w < window_end; ++w) {
      cells.push_back(cell(grid, work[w]));
      jobs.push_back(batch_job(grid, cells.back()));
      if (cells.back().spec.threads == 0) any_default_threads = true;
      spec_threads = std::max(spec_threads, cells.back().spec.threads);
    }
    // Pool width: --threads wins; otherwise the specs' `threads` keys
    // (any cell asking for the hardware default promotes the window,
    // since one pool serves the whole flattened index space).
    const unsigned threads =
        options_.threads != 0 ? options_.threads : (any_default_threads ? 0 : spec_threads);

    InOrderCommitter committer(out, cells, observer, total);
    const auto commit = [&](std::size_t j, const exec::BatchResult& result) {
      committer.commit(j, renderer.render(cells[j], jobs[j], result));
    };

    (void)batch_runner(threads).run(std::span<const exec::BatchJob>(jobs), commit);
    window_begin = window_end;
  }
  return work.size();
}

}  // namespace sweep
