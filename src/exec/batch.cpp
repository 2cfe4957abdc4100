#include "exec/batch.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

namespace exec {

std::vector<BatchResult> BatchRunner::run(std::span<const BatchJob> jobs,
                                          const JobCallback& on_complete) const {
  if (jobs.empty()) return {};
  const std::string& backend = jobs.front().backend;
  std::vector<std::size_t> offsets(jobs.size() + 1, 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].replicas == 0) {
      // Reject rather than return an all-zero Summary that renders as
      // a legitimate-looking makespan of 0.
      throw std::invalid_argument("BatchJob.replicas must be >= 1 (job " + std::to_string(j) +
                                  ")");
    }
    if (jobs[j].backend != backend) {
      throw std::invalid_argument("BatchJob.backend '" + jobs[j].backend + "' (job " +
                                  std::to_string(j) + ") differs from '" + backend +
                                  "' (job 0): a batch runs on one backend");
    }
    offsets[j + 1] = offsets[j] + jobs[j].replicas;
  }
  // Slot 0 (the calling thread) always exists and tells which backend
  // the caches hold; make_backend rejects an unknown name.
  if (slots_.empty() || slots_.front()->name() != backend) {
    slots_.clear();
    slots_.push_back(make_backend(backend));
  }

  pool::Executor& executor =
      options_.executor != nullptr ? *options_.executor : pool::Executor::shared();
  const unsigned threads = options_.threads != 0 ? options_.threads : executor.width();
  const bool wall_clock = !slots_.front()->virtual_time();
  if (!wall_clock) {
    // Size the pool -- and the per-slot caches -- only for what this
    // batch can use: min(threads, replicas).  A run_one() on a big
    // machine must not spawn (and park forever) a full-width worker set
    // for a region that will run inline; the lazy pool stays lazy for
    // small batches.  The caches must cover every slot the pool can
    // hand out (slot IDs are stable per thread, not per region) and are
    // sized BEFORE the region, with slots_.size() passed as its slot
    // cap; existing entries -- and their cached engines -- survive
    // across run() calls.
    executor.reserve(static_cast<unsigned>(std::min<std::size_t>(threads, offsets.back())));
    if (slots_.size() < executor.slot_count()) slots_.resize(executor.slot_count());
  }

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
    std::unique_ptr<Backend>& engine = slots_[slot];
    if (engine == nullptr) engine = make_backend(backend);
    const Measured measured = engine->measure(cfg);

    PerReplica& out = values[job_index];
    out.makespan[replica] = measured.makespan;
    out.wasted[replica] = measured.avg_wasted_time;
    out.speedup[replica] = measured.speedup;
    out.chunks[replica] = measured.chunks;
    if (remaining[job_index].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_job(job_index);
    }
  };

  if (wall_clock) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t replica = 0; replica < jobs[j].replicas; ++replica) {
        run_replica(j, replica, /*slot=*/0);
      }
    }
    return results;
  }
  // One pool region over the flattened (job, replica) indices, so
  // threads stay busy across job boundaries.
  executor.parallel_for_slots(
      offsets.back(),
      [&](std::size_t flat, unsigned slot) {
        const std::size_t job_index = static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), flat) - offsets.begin() - 1);
        run_replica(job_index, flat - offsets[job_index], slot);
      },
      threads, /*grain=*/1,
      // Cap the region at the slots the caches cover: another thread
      // may grow the pool between the resize above and this region.
      static_cast<unsigned>(slots_.size()));
  return results;
}

BatchResult BatchRunner::run_one(const BatchJob& job) const {
  return run(std::span<const BatchJob>(&job, 1)).front();
}

}  // namespace exec
