#include "exec/batch.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

namespace exec {

Backend& BatchRunner::slot_backend(unsigned slot, const std::string& name) const {
  auto& cache = slots_[slot];
  const auto it = cache.find(name);
  if (it != cache.end()) return *it->second;
  return *cache.emplace(name, make_backend(name, options_.backend)).first->second;
}

std::vector<BatchResult> BatchRunner::run(std::span<const BatchJob> jobs,
                                          const JobCallback& on_complete) const {
  pool::Executor& executor =
      options_.executor != nullptr ? *options_.executor : pool::Executor::shared();
  const unsigned threads = options_.threads != 0 ? options_.threads : executor.width();
  // Slot 0 (the calling thread) always exists; the wall-clock probe
  // and the serial path below use it before the pool is sized.
  if (slots_.empty()) slots_.resize(1);

  // Wall-clock backends (runtime) stay out of the parallel pool: their
  // replicas spawn their own worker threads and measure real time, so
  // co-running replicas would measure contention instead of run-to-run
  // noise.  The probe goes through the slot-0 cache, so the probe
  // instance is the one the serial path reuses.  `widest` is the
  // largest stretch of consecutive virtual-time replicas: the most one
  // pool region can claim.
  std::vector<std::size_t> offsets(jobs.size() + 1, 0);
  std::vector<bool> wall_clock(jobs.size(), false);
  std::size_t stretch = 0;
  std::size_t widest = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].replicas == 0) {
      // Reject rather than return an all-zero Summary that renders as
      // a legitimate-looking makespan of 0.
      throw std::invalid_argument("BatchJob.replicas must be >= 1 (job " + std::to_string(j) +
                                  ")");
    }
    if (!is_backend_name(jobs[j].backend)) {
      throw std::invalid_argument("BatchJob.backend '" + jobs[j].backend +
                                  "' is not a known backend (job " + std::to_string(j) + ")");
    }
    wall_clock[j] = !slot_backend(0, jobs[j].backend).virtual_time();
    offsets[j + 1] = offsets[j] + jobs[j].replicas;
    stretch = wall_clock[j] ? 0 : stretch + jobs[j].replicas;
    widest = std::max(widest, stretch);
  }

  // Size the pool -- and the per-slot backend caches -- only for what
  // this batch can actually use: min(threads, widest region).  A
  // run_one() on a big machine must not spawn (and park forever) a
  // full-width worker set for a region that will run inline; the lazy
  // pool stays lazy for small batches.  The caches must cover every
  // slot the pool can hand out (slot IDs are stable per thread, not
  // per region) and are sized BEFORE the regions, with slots_.size()
  // passed as each region's slot cap; existing entries -- and their
  // cached engines -- survive across run() calls.
  executor.reserve(static_cast<unsigned>(std::min<std::size_t>(threads, widest)));
  if (slots_.size() < executor.slot_count()) slots_.resize(executor.slot_count());

  struct PerReplica {
    std::vector<double> makespan;
    std::vector<double> wasted;
    std::vector<double> speedup;
    std::vector<double> chunks;
  };
  std::vector<PerReplica> values(jobs.size());
  // Count down the outstanding replicas per job so the thread that
  // finishes a job's last replica can summarize and commit it while
  // the rest of the batch is still running (the sweep's streaming
  // in-order committer hangs off this).  acq_rel on the decrement
  // orders every replica's value stores before the summarize.
  std::vector<std::atomic<std::size_t>> remaining(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    values[j].makespan.resize(jobs[j].replicas);
    values[j].wasted.resize(jobs[j].replicas);
    values[j].speedup.resize(jobs[j].replicas);
    values[j].chunks.resize(jobs[j].replicas);
    remaining[j].store(jobs[j].replicas, std::memory_order_relaxed);
  }

  std::vector<BatchResult> results(jobs.size());
  auto finish_job = [&](std::size_t j) {
    BatchResult& r = results[j];
    r.makespan = stats::summarize(values[j].makespan);
    r.avg_wasted_time = stats::summarize(values[j].wasted);
    r.speedup = stats::summarize(values[j].speedup);
    r.chunks = stats::summarize(values[j].chunks);
    if (jobs[j].keep_values) {
      r.makespan_values = std::move(values[j].makespan);
      r.wasted_values = std::move(values[j].wasted);
    }
    if (on_complete) on_complete(j, r);
  };

  auto run_replica = [&](std::size_t job_index, std::size_t replica, unsigned slot) {
    const BatchJob& job = jobs[job_index];
    mw::Config cfg = job.config;
    cfg.seed = job.config.seed + job.seed_stride * replica;
    // A run resets every piece of cached state it reuses when it
    // starts, so the cached instance stays safe to reuse after a throw.
    const Measured measured = slot_backend(slot, job.backend).measure(cfg);

    PerReplica& out = values[job_index];
    out.makespan[replica] = measured.makespan;
    out.wasted[replica] = measured.avg_wasted_time;
    out.speedup[replica] = measured.speedup;
    out.chunks[replica] = measured.chunks;
    if (remaining[job_index].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_job(job_index);
    }
  };

  // Jobs run in job order.  Each maximal stretch of consecutive
  // virtual-time jobs is one pool region over its flattened (job,
  // replica) indices, so threads stay busy across job boundaries; a
  // wall-clock job runs its replicas one at a time, in place, on the
  // calling thread (slot 0).
  std::size_t begin = 0;
  while (begin < jobs.size()) {
    if (wall_clock[begin]) {
      for (std::size_t replica = 0; replica < jobs[begin].replicas; ++replica) {
        run_replica(begin, replica, /*slot=*/0);
      }
      ++begin;
      continue;
    }
    std::size_t end = begin + 1;
    while (end < jobs.size() && !wall_clock[end]) ++end;
    executor.parallel_for_slots(
        offsets[end] - offsets[begin],
        [&](std::size_t i, unsigned slot) {
          const std::size_t flat = offsets[begin] + i;
          const std::size_t job_index = static_cast<std::size_t>(
              std::upper_bound(offsets.begin(), offsets.end(), flat) - offsets.begin() - 1);
          run_replica(job_index, flat - offsets[job_index], slot);
        },
        threads, /*grain=*/1,
        // Cap the region at the slots the caches cover: another thread
        // may grow the pool between the resize above and this region.
        static_cast<unsigned>(slots_.size()));
    begin = end;
  }

  return results;
}

BatchResult BatchRunner::run_one(const BatchJob& job) const {
  return run(std::span<const BatchJob>(&job, 1)).front();
}

}  // namespace exec
