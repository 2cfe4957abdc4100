#include "hagerup/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "dls/technique.hpp"
#include "workload/random_source.hpp"

namespace hagerup {

RunResult run(const Config& config) {
  RunContext context;
  return run(config, context);
}

RunResult run(const Config& config, RunContext& context) {
  if (config.pes == 0) throw std::invalid_argument("Config.pes must be >= 1");
  if (config.tasks == 0) throw std::invalid_argument("Config.tasks must be >= 1");
  if (!config.workload) throw std::invalid_argument("Config.workload is not set");

  dls::Params params = config.params;
  params.p = config.pes;
  params.n = config.tasks;
  const auto technique = dls::make_technique(config.technique, params);

  const std::unique_ptr<workload::RandomSource> rng =
      config.use_rand48 ? std::unique_ptr<workload::RandomSource>(
                              std::make_unique<workload::Rand48Source>(
                                  static_cast<std::uint32_t>(config.seed)))
                        : std::unique_ptr<workload::RandomSource>(
                              std::make_unique<workload::XoshiroSource>(config.seed));
  config.workload->generate_into(context.task_times, config.tasks, *rng);
  const std::vector<double>& task_times = context.task_times;

  RunResult result;
  result.compute_time.assign(config.pes, 0.0);
  result.chunks.assign(config.pes, 0);
  result.schedule_time.assign(config.pes, 0.0);

  WorkerTree& workers = context.workers;
  workers.reset(config.pes);
  // The chunk each worker just finished (0 before its first request).
  context.done_size.assign(config.pes, 0);
  context.done_exec.assign(config.pes, 0.0);
  const double overhead = config.charge_overhead_inline ? config.params.h : 0.0;

  double dispatcher_free = 0.0;  // the serialized shared dispatcher
  std::size_t next_task = 0;
  double makespan = 0.0;
  while (!workers.empty()) {
    const std::size_t worker = workers.top();
    const double now = workers.top_time();
    if (context.done_size[worker] > 0) {
      technique->on_chunk_complete(dls::ChunkFeedback{worker, context.done_size[worker],
                                                      context.done_exec[worker], now});
    }
    const double dispatch_end = std::max(now, dispatcher_free) + config.dispatch_hold;
    dispatcher_free = dispatch_end;
    result.schedule_time[worker] += dispatch_end - now;
    makespan = std::max(makespan, dispatch_end);
    const std::size_t chunk = technique->next_chunk(dls::Request{worker, dispatch_end});
    if (chunk == 0) {
      workers.retire_top();
      continue;
    }
    // Chunks take the tasks of [0, n) in order, so total_work sums the
    // task times left to right here, without a pass of its own.  It
    // runs in a local within a chunk: a double live across the
    // technique's calls is kept in memory, and GCC would otherwise load
    // and store it once per task.
    double exec = 0.0;
    double total_work = result.total_work;
    for (std::size_t i = next_task; i < next_task + chunk; ++i) {
      exec += task_times[i];
      total_work += task_times[i];
    }
    result.total_work = total_work;
    exec *= config.work_inflation;
    if (config.record_chunk_log) {
      result.chunk_log.push_back(ChunkLogEntry{worker, next_task, chunk, dispatch_end, exec});
    }
    next_task += chunk;
    ++result.chunk_count;
    ++result.chunks[worker];
    result.compute_time[worker] += exec;
    result.executed_work += exec;
    context.done_size[worker] = chunk;
    context.done_exec[worker] = exec;
    workers.replace_top(dispatch_end + overhead + exec);
  }

  result.makespan = makespan;
  double idle_sum = 0.0;
  for (double c : result.compute_time) idle_sum += makespan - c;
  result.idle_sum = idle_sum;
  double wasted_sum = idle_sum;
  if (!config.charge_overhead_inline) {
    wasted_sum += config.params.h * static_cast<double>(result.chunk_count);
  }
  result.avg_wasted_time = wasted_sum / static_cast<double>(config.pes);
  return result;
}

}  // namespace hagerup
