#pragma once

#include <cstddef>
#include <vector>

namespace mw {

/// Per-worker outcome of one simulated run.
struct WorkerStats {
  double compute_time = 0.0;  ///< virtual seconds spent executing tasks
  double wait_time = 0.0;     ///< virtual seconds blocked waiting for work
  double comm_time = 0.0;     ///< virtual seconds in blocking sends
  std::size_t tasks = 0;      ///< tasks COMPLETED by this worker
  std::size_t chunks = 0;
  bool failed = false;        ///< worker hit its fail-stop time
};

/// One entry of the optional chunk log.
struct ChunkLogEntry {
  std::size_t pe = 0;
  std::size_t first = 0;
  std::size_t size = 0;
  double issued_at = 0.0;
  /// Aggregate nominal execution time served with the chunk [s], as
  /// computed by the master's prefix-sum index over the task times.
  double work_seconds = 0.0;
};

/// One contiguous sub-range of a served chunk (optional range log).  A
/// chunk normally spans a single range; it spans several only when the
/// free-list is fragmented after a worker failure.  `chunk` indexes
/// into RunResult::chunk_log.
struct ServedRangeEntry {
  std::size_t chunk = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// Outcome of one master-worker simulation run.
struct RunResult {
  double makespan = 0.0;            ///< final virtual time
  double total_nominal_work = 0.0;  ///< sum of all task times [s]
  std::size_t chunk_count = 0;      ///< number of scheduling operations
  double master_busy_time = 0.0;    ///< simulated overhead time at the master
  /// Average wasted time of the run: mean over workers of (makespan -
  /// compute time), plus h*chunks/p under OverheadMode::kAnalytic.
  double avg_wasted_time = 0.0;
  std::size_t tasks_reclaimed = 0;  ///< tasks re-scheduled after worker failures
  std::vector<WorkerStats> workers;
  std::vector<ChunkLogEntry> chunk_log;      ///< filled if Config::record_chunk_log
  std::vector<ServedRangeEntry> range_log;   ///< filled if Config::record_chunk_log
};

}  // namespace mw
