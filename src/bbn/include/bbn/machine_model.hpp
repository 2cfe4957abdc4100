#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dls/params.hpp"
#include "workload/task_times.hpp"

namespace bbn {

/// Model of the 96-node BBN GP-1000 environment of the TSS publication
/// (Tzen & Ni 1993), the "values from original publication" side of the
/// paper's Figures 3-4.
///
/// The original measurements used *implicit* shared-memory parallelism:
/// processors self-dispatch chunks from a shared loop index.  The paper
/// names three mechanisms, absent from the explicit master-worker
/// model, as the likely cause of its unsuccessful reproduction
/// (Sections IV-A and VI); this model implements exactly those:
///
///   1. Dispatch serialization: the shared loop index is one memory
///      location; concurrent fetches serialize.  SS, CSS and TSS use
///      atomic instructions (cheap); GSS computes its chunk under a
///      lock (expensive), "the chunk calculation seems to have a strong
///      influence for GSS".
///   2. Contention growth: dispatch cost rises with the processor count
///      because the fetches traverse the multistage interconnection
///      network (a slight OMEGA variant).
///   3. Remote memory references: task execution is inflated by the
///      remote reference ratio (the publication pins it at 5%) times
///      the remote-access penalty.
struct MachineModel {
  /// Atomic fetch&add dispatch (SS, CSS, TSS): busy time per dispatch
  /// is atomic_base + atomic_per_pe * P.
  double atomic_base = 1.5e-6;
  double atomic_per_pe = 6.0e-8;
  /// Locked dispatch (GSS): lock_base + lock_per_pe * P held per
  /// dispatch; contended fetches queue.
  double lock_base = 2.0e-5;
  double lock_per_pe = 1.6e-6;
  /// Fraction of memory references that are remote, and the cost
  /// multiplier of a remote reference relative to a local one.
  double remote_ref_ratio = 0.05;
  double remote_penalty = 3.0;

  /// Effective task-time multiplier from remote references.
  [[nodiscard]] double inflation() const {
    return 1.0 + remote_ref_ratio * (remote_penalty - 1.0);
  }
  /// Dispatch hold time for a technique on P processors.
  [[nodiscard]] double dispatch_hold(dls::Kind technique, std::size_t pes) const;
};

struct Config {
  dls::Kind technique = dls::Kind::kSS;
  dls::Params params;  ///< p/n forced from pes/tasks
  std::size_t pes = 1;
  std::size_t tasks = 1;
  std::shared_ptr<const workload::TaskTimeGenerator> workload;
  MachineModel machine;
  std::uint64_t seed = 42;
  /// Record the full per-chunk log in the result (exec::Backend::run
  /// needs it for the check catalog; the measured-value path does not).
  bool record_chunk_log = false;
};

/// One entry of the optional chunk log, in dispatch order.  The shared
/// loop index hands out tasks sequentially, so `first` is its value at
/// dispatch time.
struct ChunkLogEntry {
  std::size_t pe = 0;
  std::size_t first = 0;
  std::size_t size = 0;
  double issued_at = 0.0;     ///< virtual time the dispatch completed
  double work_seconds = 0.0;  ///< inflated execution time of the chunk [s]
};

/// Tzen-Ni measurements (their equations (11)-(13)): X is computing,
/// O scheduling, W waiting for synchronization; L the ideal work.
struct RunResult {
  double makespan = 0.0;
  double total_work = 0.0;  ///< sum of inflated task times
  std::size_t chunk_count = 0;
  std::vector<double> compute_time;    ///< X per processor
  std::vector<double> schedule_time;   ///< O per processor (queueing + hold)
  double speedup = 0.0;                ///< r      = L*P / sum(X+O+W)
  double overhead_degree = 0.0;        ///< Theta  = O*P / sum(X+O+W)
  double imbalance_degree = 0.0;       ///< Lambda = W*P / sum(X+O+W)
  std::vector<ChunkLogEntry> chunk_log;  ///< filled if Config::record_chunk_log
};

[[nodiscard]] RunResult run(const Config& config);

}  // namespace bbn
