#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "exec/batch.hpp"
#include "mw/simulation.hpp"
#include "support/table.hpp"
#include "workload/random_source.hpp"
#include "workload/task_times.hpp"

namespace check {
namespace {

/// Relative slack for comparisons between independently accumulated
/// floating-point sums (different summation orders differ in ulps).
constexpr double kRelTol = 1e-9;

bool close(double a, double b, double rel = kRelTol) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string fmt(double v) { return support::fmt_shortest(v); }

bool any_failure(const exec::BackendRun& run) {
  if (run.tasks_reclaimed > 0) return true;
  for (const mw::WorkerStats& w : run.worker_stats) {
    if (w.failed) return true;
  }
  return false;
}

/// The same RNG the simulators build (mw/simulation.cpp, hagerup).
std::unique_ptr<workload::RandomSource> make_rng(const mw::Config& cfg) {
  if (cfg.use_rand48) {
    return std::make_unique<workload::Rand48Source>(static_cast<std::uint32_t>(cfg.seed));
  }
  return std::make_unique<workload::XoshiroSource>(cfg.seed);
}

/// Ranges of chunk `c`, pulled from the (chunk-ordered) range log.
/// `cursor` advances across calls in chunk order.
void ranges_of_chunk(const exec::BackendRun& run, std::size_t c, std::size_t& cursor,
                     std::vector<mw::ServedRangeEntry>& out) {
  out.clear();
  while (cursor < run.range_log.size() && run.range_log[cursor].chunk == c) {
    out.push_back(run.range_log[cursor]);
    ++cursor;
  }
}

}  // namespace

std::optional<std::string> check_chunk_bounds(const exec::BackendRun& run) {
  if (run.chunk_count != run.chunk_log.size()) {
    return "chunk_count " + std::to_string(run.chunk_count) + " != chunk log length " +
           std::to_string(run.chunk_log.size());
  }
  std::size_t cursor = 0;
  std::vector<mw::ServedRangeEntry> ranges;
  for (std::size_t c = 0; c < run.chunk_log.size(); ++c) {
    const mw::ChunkLogEntry& chunk = run.chunk_log[c];
    if (chunk.size == 0) return "chunk " + std::to_string(c) + " has size 0";
    if (chunk.pe >= run.workers) {
      return "chunk " + std::to_string(c) + " served to out-of-range pe " +
             std::to_string(chunk.pe);
    }
    ranges_of_chunk(run, c, cursor, ranges);
    if (ranges.empty()) return "chunk " + std::to_string(c) + " has no served ranges";
    std::size_t total = 0;
    for (const mw::ServedRangeEntry& r : ranges) {
      if (r.count == 0) return "chunk " + std::to_string(c) + " has an empty range";
      if (r.first + r.count > run.tasks) {
        return "chunk " + std::to_string(c) + " range [" + std::to_string(r.first) + ", " +
               std::to_string(r.first + r.count) + ") exceeds n = " + std::to_string(run.tasks);
      }
      total += r.count;
    }
    if (total != chunk.size) {
      return "chunk " + std::to_string(c) + " ranges sum to " + std::to_string(total) +
             ", chunk size is " + std::to_string(chunk.size);
    }
    if (chunk.first != ranges.front().first) {
      return "chunk " + std::to_string(c) + " first " + std::to_string(chunk.first) +
             " != leading range first " + std::to_string(ranges.front().first);
    }
  }
  if (cursor != run.range_log.size()) {
    return "range log has " + std::to_string(run.range_log.size() - cursor) +
           " trailing entries referencing no chunk";
  }
  return std::nullopt;
}

std::optional<std::string> check_coverage(const exec::BackendRun& run) {
  if (any_failure(run)) return std::nullopt;  // exact cover needs failure-free runs
  std::size_t cursor = 0;
  std::vector<mw::ServedRangeEntry> chunk_ranges;
  std::vector<std::pair<std::size_t, std::size_t>> step;  // (first, count)
  std::size_t step_total = 0;
  std::size_t steps_done = 0;
  for (std::size_t c = 0; c < run.chunk_log.size(); ++c) {
    ranges_of_chunk(run, c, cursor, chunk_ranges);
    for (const mw::ServedRangeEntry& r : chunk_ranges) {
      step.emplace_back(r.first, r.count);
      step_total += r.count;
    }
    if (step_total > run.tasks) {
      return "step " + std::to_string(steps_done) + " serves " + std::to_string(step_total) +
             " tasks, more than n = " + std::to_string(run.tasks) + " (chunk " +
             std::to_string(c) + " overlaps or overflows)";
    }
    if (step_total == run.tasks) {
      std::sort(step.begin(), step.end());
      std::size_t expect = 0;
      for (const auto& [first, count] : step) {
        if (first != expect) {
          return "step " + std::to_string(steps_done) + ": range starting at " +
                 std::to_string(first) + " but expected " + std::to_string(expect) +
                 (first < expect ? " (overlap)" : " (gap)");
        }
        expect = first + count;
      }
      step.clear();
      step_total = 0;
      ++steps_done;
    }
  }
  if (step_total != 0) {
    return "trailing partial step: " + std::to_string(step_total) + " of " +
           std::to_string(run.tasks) + " tasks served";
  }
  if (steps_done != run.timesteps) {
    return "chunk log covers " + std::to_string(steps_done) + " timesteps, config has " +
           std::to_string(run.timesteps);
  }
  return std::nullopt;
}

std::optional<std::string> check_conservation(const exec::BackendRun& run) {
  const std::size_t expected = run.tasks * run.timesteps;
  std::size_t completed = 0;
  std::size_t chunks = 0;
  for (const mw::WorkerStats& w : run.worker_stats) {
    completed += w.tasks;
    chunks += w.chunks;
  }
  if (completed != expected) {
    return "workers completed " + std::to_string(completed) + " tasks, expected n * timesteps = " +
           std::to_string(expected);
  }
  std::size_t served = 0;
  for (const mw::ChunkLogEntry& chunk : run.chunk_log) served += chunk.size;
  if (served != expected + run.tasks_reclaimed) {
    return "served " + std::to_string(served) + " tasks, expected n * timesteps + reclaimed = " +
           std::to_string(expected + run.tasks_reclaimed);
  }
  if (chunks != run.chunk_count) {
    return "per-worker chunk counts sum to " + std::to_string(chunks) + ", chunk_count is " +
           std::to_string(run.chunk_count);
  }
  return std::nullopt;
}

std::optional<std::string> check_work_seconds(const Scenario& scenario,
                                              const exec::BackendRun& run) {
  if (!run.virtual_time || any_failure(run)) return std::nullopt;
  const mw::Config& cfg = scenario.config;
  const auto rng = make_rng(cfg);
  std::vector<double> times;
  std::vector<double> prefix(run.tasks + 1, 0.0);
  std::size_t cursor = 0;
  std::vector<mw::ServedRangeEntry> chunk_ranges;
  std::size_t step_total = run.tasks;  // forces a regeneration at chunk 0
  double nominal_total = 0.0;
  for (std::size_t c = 0; c < run.chunk_log.size(); ++c) {
    if (step_total == run.tasks) {
      cfg.workload->generate_into(times, run.tasks, *rng);
      prefix[0] = 0.0;
      for (std::size_t i = 0; i < times.size(); ++i) {
        nominal_total += times[i];
        prefix[i + 1] = prefix[i] + times[i];
      }
      step_total = 0;
    }
    ranges_of_chunk(run, c, cursor, chunk_ranges);
    double seconds = 0.0;
    for (const mw::ServedRangeEntry& r : chunk_ranges) {
      seconds += prefix[r.first + r.count] - prefix[r.first];
      step_total += r.count;
    }
    if (!close(seconds, run.chunk_log[c].work_seconds)) {
      return "chunk " + std::to_string(c) + " logs " + fmt(run.chunk_log[c].work_seconds) +
             " nominal seconds; the regenerated workload gives " + fmt(seconds);
    }
  }
  if (!close(nominal_total, run.total_nominal_work)) {
    return "total nominal work " + fmt(run.total_nominal_work) +
           " != regenerated workload total " + fmt(nominal_total);
  }
  return std::nullopt;
}

std::optional<std::string> check_makespan_bounds(const Scenario& scenario,
                                                const exec::BackendRun& run) {
  if (!run.virtual_time) return std::nullopt;
  const mw::Config& cfg = scenario.config;
  if (!cfg.worker_speed_profiles.empty()) return std::nullopt;  // time-varying capacity
  double sum_factors = 0.0;
  double max_factor = 0.0;
  for (std::size_t w = 0; w < run.workers; ++w) {
    const double f = cfg.worker_speed_factors.empty() ? 1.0 : cfg.worker_speed_factors[w];
    sum_factors += f;
    max_factor = std::max(max_factor, f);
  }
  // Perfect sharing: completed nominal work >= total_nominal_work and
  // capacity <= sum_factors per simulated second (failures only shrink
  // real capacity, keeping the bound a lower bound).
  const double sharing = run.total_nominal_work / sum_factors;
  if (run.makespan < sharing * (1.0 - kRelTol) - 1e-12) {
    return "makespan " + fmt(run.makespan) + " beats the perfect-sharing bound " + fmt(sharing);
  }
  // Critical path: the largest single task must execute somewhere, at
  // best on the fastest worker.
  const auto rng = make_rng(cfg);
  std::vector<double> times;
  double max_task = 0.0;
  for (std::size_t step = 0; step < run.timesteps; ++step) {
    cfg.workload->generate_into(times, run.tasks, *rng);
    for (double t : times) max_task = std::max(max_task, t);
  }
  const double critical = max_task / max_factor;
  if (run.makespan < critical * (1.0 - kRelTol) - 1e-12) {
    return "makespan " + fmt(run.makespan) + " beats the critical-path bound " + fmt(critical);
  }
  return std::nullopt;
}

std::optional<std::string> check_metrics_identity(const Scenario& scenario,
                                                  const exec::BackendRun& run) {
  if (!run.metrics.has_value()) return std::nullopt;
  const mw::Metrics& m = *run.metrics;
  const mw::Config& cfg = scenario.config;
  const double p = static_cast<double>(run.workers);

  if (m.chunks != run.chunk_count) {
    return "metrics chunks " + std::to_string(m.chunks) + " != chunk_count " +
           std::to_string(run.chunk_count);
  }
  if (run.makespan > 0.0 && !close(m.speedup * run.makespan, run.total_nominal_work)) {
    return "speedup * makespan = " + fmt(m.speedup * run.makespan) + " != total work " +
           fmt(run.total_nominal_work);
  }
  if (run.total_nominal_work > 0.0 && m.speedup > 0.0 && !close(m.slowness, p / m.speedup)) {
    return "slowness " + fmt(m.slowness) + " != p / speedup = " + fmt(p / m.speedup);
  }

  double wasted = 0.0;
  double compute_sum = 0.0;
  for (const mw::WorkerStats& w : run.worker_stats) {
    wasted += run.makespan - w.compute_time;
    compute_sum += w.compute_time;
  }
  if (cfg.overhead_mode == mw::OverheadMode::kAnalytic) {
    wasted += cfg.params.h * static_cast<double>(run.chunk_count);
  }
  if (!close(m.avg_wasted_time, wasted / p)) {
    return "avg wasted time " + fmt(m.avg_wasted_time) + " != recomputed " + fmt(wasted / p);
  }
  if (compute_sum > 0.0) {
    const double mean = compute_sum / p;
    double sq = 0.0;
    for (const mw::WorkerStats& w : run.worker_stats) {
      sq += (w.compute_time - mean) * (w.compute_time - mean);
    }
    const double cov = std::sqrt(sq / p) / mean;
    if (!close(m.cov, cov)) return "cov " + fmt(m.cov) + " != recomputed " + fmt(cov);
  }

  if (!any_failure(run)) {
    // Per-worker served totals re-derive exactly from the chunk log.
    std::vector<std::size_t> tasks_by_pe(run.workers, 0);
    std::vector<std::size_t> chunks_by_pe(run.workers, 0);
    for (const mw::ChunkLogEntry& chunk : run.chunk_log) {
      tasks_by_pe[chunk.pe] += chunk.size;
      chunks_by_pe[chunk.pe] += 1;
    }
    for (std::size_t w = 0; w < run.workers; ++w) {
      if (tasks_by_pe[w] != run.worker_stats[w].tasks) {
        return "worker " + std::to_string(w) + " stats report " +
               std::to_string(run.worker_stats[w].tasks) + " tasks, chunk log has " +
               std::to_string(tasks_by_pe[w]);
      }
      if (chunks_by_pe[w] != run.worker_stats[w].chunks) {
        return "worker " + std::to_string(w) + " stats report " +
               std::to_string(run.worker_stats[w].chunks) + " chunks, chunk log has " +
               std::to_string(chunks_by_pe[w]);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_cross_backend(const Scenario& scenario,
                                               const exec::BackendRun& mw_run,
                                               const exec::BackendRun& hagerup_run) {
  // Strict agreement is only a theorem for the hagerup_identical class:
  // timing-sensitive techniques (AWF*, AF, BOLD) react to sub-ulp
  // execution-time differences between the two accumulations, and
  // per-PE weights react to request-ordering tie-breaks.  Their
  // statistical agreement is covered by the cross-simulator
  // integration tests instead.
  if (!scenario.hagerup_identical()) return std::nullopt;
  if (mw_run.chunk_count != hagerup_run.chunk_count) {
    return "mw issued " + std::to_string(mw_run.chunk_count) + " chunks, hagerup " +
           std::to_string(hagerup_run.chunk_count);
  }
  if (!close(mw_run.makespan, hagerup_run.makespan, 1e-6)) {
    return "mw makespan " + fmt(mw_run.makespan) + " vs hagerup " + fmt(hagerup_run.makespan);
  }
  for (std::size_t c = 0; c < mw_run.chunk_log.size(); ++c) {
    const mw::ChunkLogEntry& a = mw_run.chunk_log[c];
    const mw::ChunkLogEntry& b = hagerup_run.chunk_log[c];
    if (a.first != b.first || a.size != b.size) {
      return "chunk " + std::to_string(c) + " differs: mw [" + std::to_string(a.first) + " +" +
             std::to_string(a.size) + "), hagerup [" + std::to_string(b.first) + " +" +
             std::to_string(b.size) + ")";
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_mw_determinism(const Scenario& scenario,
                                                const exec::BackendRun& mw_run) {
  mw::Config config = scenario.config;
  config.record_chunk_log = true;
  mw::RunContext context;
  // Prime the context with a run, then re-run reusing its cached
  // engine/buffers: both must reproduce `mw_run` bitwise.
  (void)mw::run_simulation(config, context);
  const exec::BackendRun reused = exec::from_mw(config, mw::run_simulation(config, context));
  if (reused.makespan != mw_run.makespan) {
    return "makespan differs across RunContext reuse: " + fmt(mw_run.makespan) + " vs " +
           fmt(reused.makespan);
  }
  if (reused.chunk_log.size() != mw_run.chunk_log.size()) {
    return "chunk log length differs across RunContext reuse: " +
           std::to_string(mw_run.chunk_log.size()) + " vs " +
           std::to_string(reused.chunk_log.size());
  }
  for (std::size_t c = 0; c < mw_run.chunk_log.size(); ++c) {
    const mw::ChunkLogEntry& a = mw_run.chunk_log[c];
    const mw::ChunkLogEntry& b = reused.chunk_log[c];
    if (a.pe != b.pe || a.first != b.first || a.size != b.size || a.issued_at != b.issued_at ||
        a.work_seconds != b.work_seconds) {
      return "chunk " + std::to_string(c) + " differs across RunContext reuse";
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_batch_determinism(const Scenario& scenario,
                                                   std::size_t replicas) {
  exec::BatchJob job;
  job.config = scenario.config;
  job.config.record_chunk_log = false;
  job.replicas = replicas;

  // The threaded arm runs on its OWN executor: the fuzzer drives
  // scenarios from inside a shared-pool region, and a nested region on
  // the same pool would collapse to an inline serial loop (the pool's
  // safe re-entry rule) -- silently turning this into serial-vs-serial.
  // A private pool keeps the comparison genuinely scheduling-sensitive
  // (per-slot caches, out-of-order replica completion); static, so the
  // 10k-scenario fuzz suites don't pay a thread spawn/join per call
  // (concurrent fuzzer workers serialize on its region mutex).
  static pool::Executor threaded_pool(3);
  auto run_with = [&](unsigned threads, pool::Executor* executor) {
    exec::BatchRunner::Options options;
    options.threads = threads;
    options.keep_values = true;
    options.executor = executor;
    return exec::BatchRunner(options).run_one(job);
  };
  const exec::BatchResult serial = run_with(1, nullptr);
  const exec::BatchResult threaded = run_with(3, &threaded_pool);

  auto summaries_differ = [](const stats::Summary& a, const stats::Summary& b) {
    return a.count != b.count || a.mean != b.mean || a.stddev != b.stddev || a.min != b.min ||
           a.max != b.max;
  };
  if (summaries_differ(serial.makespan, threaded.makespan)) return std::string("makespan summary differs between 1 and 3 batch threads");
  if (summaries_differ(serial.avg_wasted_time, threaded.avg_wasted_time)) {
    return std::string("avg wasted time summary differs between 1 and 3 batch threads");
  }
  if (summaries_differ(serial.speedup, threaded.speedup)) {
    return std::string("speedup summary differs between 1 and 3 batch threads");
  }
  if (summaries_differ(serial.chunks, threaded.chunks)) {
    return std::string("chunks summary differs between 1 and 3 batch threads");
  }
  if (serial.makespan_values != threaded.makespan_values) {
    return std::string("per-replica makespans differ between 1 and 3 batch threads");
  }
  return std::nullopt;
}

std::optional<std::string> check_worker_monotonicity(const Scenario& scenario) {
  const mw::Config& cfg = scenario.config;
  if (scenario.timing_sensitive || scenario.heterogeneous || scenario.has_failures ||
      !scenario.null_network) {
    return std::nullopt;
  }
  if (cfg.overhead_mode != mw::OverheadMode::kAnalytic) return std::nullopt;
  if (cfg.technique == dls::Kind::kRND) return std::nullopt;  // chunk sizes re-randomize with p
  if (!cfg.params.weights.empty()) return std::nullopt;
  if (cfg.workload->stddev() != 0.0) return std::nullopt;  // constant workloads only

  mw::Config doubled = cfg;
  doubled.workers = cfg.workers * 2;
  doubled.record_chunk_log = false;
  // has_failures is false here, so any failure list is all-infinity;
  // drop it rather than resizing for the doubled worker count.
  doubled.worker_failure_times.clear();
  mw::Config base = cfg;
  base.record_chunk_log = false;
  base.worker_failure_times.clear();
  const double makespan_p = mw::run_simulation(base).makespan;
  const double makespan_2p = mw::run_simulation(doubled).makespan;
  if (makespan_2p > makespan_p * (1.0 + kRelTol) + 1e-12) {
    return "makespan worsened with more workers: " + fmt(makespan_p) + " at p = " +
           std::to_string(cfg.workers) + " vs " + fmt(makespan_2p) + " at p = " +
           std::to_string(doubled.workers);
  }
  return std::nullopt;
}

std::vector<Failure> check_run(const Scenario& scenario, const exec::BackendRun& run) {
  std::vector<Failure> failures;
  auto apply = [&](const char* name, std::optional<std::string> result) {
    if (result.has_value()) {
      failures.push_back(Failure{name, "[" + run.backend + "] " + *result});
    }
  };
  apply("chunk_bounds", check_chunk_bounds(run));
  apply("coverage", check_coverage(run));
  apply("conservation", check_conservation(run));
  apply("work_seconds", check_work_seconds(scenario, run));
  apply("makespan_bounds", check_makespan_bounds(scenario, run));
  apply("metrics_identity", check_metrics_identity(scenario, run));
  return failures;
}

}  // namespace check
