#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dls/params.hpp"
#include "hagerup/worker_tree.hpp"
#include "workload/task_times.hpp"

namespace hagerup {

/// The direct (no message passing) task-allocation simulator: the
/// replication of the BOLD publication's simulator (Hagerup 1997), the
/// "values from original publication" side of the paper's Figures 5-8,
/// and, as a machine model applied to the same loop (bbn::on_machine),
/// of the TSS publication's BBN GP-1000, the original side of Figures
/// 3-4.
///
/// The p workers' next-free times sit in a tournament tree
/// (WorkerTree, one 128-bit integer key of time bits and worker index
/// per node), which hands out the earliest-free worker, lowest index on
/// ties, exactly as a binary heap on (time, worker) would.  Each step gives the technique its feedback at the pop
/// time, then dispatches on the one shared dispatcher: the dispatch
/// starts once both the worker and the dispatcher are free, holds the
/// dispatcher for `dispatch_hold`, and ends with next_chunk.  A worker
/// that gets no chunk retires (its dispatch still counts toward the
/// makespan); otherwise it executes the chunk's task times times
/// `work_inflation`.  With the defaults (hold 0, inflation 1) this is
/// exactly Hagerup's simulator: the master computes the next chunk the
/// moment a worker becomes free.  Task execution times are drawn with
/// the replicated erand48/nrand48 generator family ("Task execution
/// times are generated with the aid of the random number generators
/// erand48 and nrand48", paper Section III-B).
///
/// Scheduling overhead: "It was assumed that every scheduling operation
/// takes a fixed amount of time (parameter h).  This scheduling
/// overhead for each scheduling operation was added directly to the
/// simulation times."  With charge_overhead_inline, each allocation
/// occupies the requesting worker for h seconds before the chunk
/// executes (a spec's `overhead inline`).  The default adds h * chunks
/// / p to the average wasted time after the run instead: the accounting
/// the paper applies to its SimGrid-MSG experiments, and the one every
/// figure's original side uses.  The overhead ablation
/// (bench/specs/ablation_overhead_*.sweep) compares the two.
struct Config {
  dls::Kind technique = dls::Kind::kSS;
  dls::Params params;  ///< p/n forced from pes/tasks below
  std::size_t pes = 1;
  std::size_t tasks = 1;
  std::shared_ptr<const workload::TaskTimeGenerator> workload;
  std::uint64_t seed = 42;
  bool use_rand48 = true;
  bool charge_overhead_inline = false;
  /// Record the full per-chunk log in the result (check::BackendRun
  /// uses it to compare scheduling decisions across simulators).
  bool record_chunk_log = false;
  /// Machine model (set by bbn::on_machine): the time each dispatch
  /// holds the shared dispatcher [s], and the factor applied to every
  /// executed chunk's task time.
  double dispatch_hold = 0.0;
  double work_inflation = 1.0;
};

/// One entry of the optional chunk log, in allocation order.  Tasks are
/// always served sequentially from the front of [0, n), so `first` is
/// the running task index at allocation time.
struct ChunkLogEntry {
  std::size_t pe = 0;
  std::size_t first = 0;
  std::size_t size = 0;
  double issued_at = 0.0;      ///< virtual time the chunk's dispatch ended
  double work_seconds = 0.0;   ///< executed (inflated) time of the chunk [s]
};

struct RunResult {
  double makespan = 0.0;
  double total_work = 0.0;            ///< sum of the n task times, in task order
  /// Executed chunk times (inflated) summed in dispatch order.
  double executed_work = 0.0;
  std::size_t chunk_count = 0;
  std::vector<double> compute_time;   ///< per worker
  std::vector<std::size_t> chunks;    ///< per worker
  /// Per worker: time spent waiting for and holding the dispatcher
  /// (Tzen-Ni's O; all zero without a dispatch hold).
  std::vector<double> schedule_time;
  /// Sum over workers, in worker order, of (makespan - compute time).
  double idle_sum = 0.0;
  /// Average wasted time of the run: idle_sum / p, which equals idle +
  /// overhead per worker when overhead is charged inline; plus
  /// h*chunks/p otherwise.
  double avg_wasted_time = 0.0;
  std::vector<ChunkLogEntry> chunk_log;  ///< filled if Config::record_chunk_log
};

/// Reusable scratch state for run(): the task-time buffer (the dominant
/// allocation of a replica at large n) is filled in place via workload
/// generate_into instead of reallocated per run, and the worker tree's
/// node array (16 bytes per leaf, padded to a power of two) and the
/// per-worker last-chunk arrays keep their capacity across replicas.
/// Not thread-safe; use one context per thread (exec::BatchRunner keeps
/// one inside each pooled hagerup backend).
struct RunContext {
  std::vector<double> task_times;
  WorkerTree workers;
  std::vector<std::size_t> done_size;  ///< per worker: size of the chunk just finished
  std::vector<double> done_exec;       ///< per worker: its aggregate task time [s]
};

/// Run one simulation.  Deterministic in Config (including seed).
[[nodiscard]] RunResult run(const Config& config);

/// Same, reusing `context`'s buffers across calls -- the fast path for
/// replicated runs (see exec::Backend).  Bit-identical to the
/// context-free overload.
[[nodiscard]] RunResult run(const Config& config, RunContext& context);

}  // namespace hagerup
