#include "bbn/machine_model.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "dls/technique.hpp"
#include "workload/random_source.hpp"

namespace bbn {

double MachineModel::dispatch_hold(dls::Kind technique, std::size_t pes) const {
  const double p = static_cast<double>(pes);
  if (technique == dls::Kind::kGSS) return lock_base + lock_per_pe * p;
  return atomic_base + atomic_per_pe * p;
}

namespace {

struct FreeEvent {
  double time = 0.0;
  std::size_t pe = 0;
  std::size_t done_size = 0;
  double done_exec = 0.0;
};
struct Later {
  bool operator()(const FreeEvent& a, const FreeEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.pe > b.pe;
  }
};

}  // namespace

RunResult run(const Config& config) {
  if (config.pes == 0) throw std::invalid_argument("Config.pes must be >= 1");
  if (config.tasks == 0) throw std::invalid_argument("Config.tasks must be >= 1");
  if (!config.workload) throw std::invalid_argument("Config.workload is not set");

  dls::Params params = config.params;
  params.p = config.pes;
  params.n = config.tasks;
  const auto technique = dls::make_technique(config.technique, params);

  workload::XoshiroSource rng(config.seed);
  const std::vector<double> task_times = config.workload->generate(config.tasks, rng);
  const double inflation = config.machine.inflation();
  const double hold = config.machine.dispatch_hold(config.technique, config.pes);

  RunResult result;
  result.compute_time.assign(config.pes, 0.0);
  result.schedule_time.assign(config.pes, 0.0);

  std::priority_queue<FreeEvent, std::vector<FreeEvent>, Later> queue;
  for (std::size_t pe = 0; pe < config.pes; ++pe) queue.push(FreeEvent{0.0, pe, 0, 0.0});

  double dispatcher_free = 0.0;  // the serialized shared-index resource
  std::size_t next_task = 0;
  double makespan = 0.0;
  while (!queue.empty()) {
    const FreeEvent ev = queue.top();
    queue.pop();
    if (ev.done_size > 0) {
      technique->on_chunk_complete(
          dls::ChunkFeedback{ev.pe, ev.done_size, ev.done_exec, ev.time});
    }
    // Serialize on the shared loop index / dispatch lock.
    const double start = std::max(ev.time, dispatcher_free);
    const double dispatch_end = start + hold;
    dispatcher_free = dispatch_end;
    result.schedule_time[ev.pe] += dispatch_end - ev.time;  // queueing + hold
    makespan = std::max(makespan, dispatch_end);

    const std::size_t chunk = technique->next_chunk(dls::Request{ev.pe, dispatch_end});
    if (chunk == 0) continue;  // loop exhausted: processor leaves the loop
    double exec = 0.0;
    for (std::size_t i = next_task; i < next_task + chunk; ++i) exec += task_times[i];
    exec *= inflation;
    if (config.record_chunk_log) {
      result.chunk_log.push_back(ChunkLogEntry{ev.pe, next_task, chunk, dispatch_end, exec});
    }
    next_task += chunk;
    ++result.chunk_count;
    result.compute_time[ev.pe] += exec;
    result.total_work += exec;
    makespan = std::max(makespan, dispatch_end + exec);
    queue.push(FreeEvent{dispatch_end + exec, ev.pe, chunk, exec});
  }

  result.makespan = makespan;
  // Tzen-Ni metrics with sum(X + O + W) = P * makespan.
  const double p = static_cast<double>(config.pes);
  const double denom = p * makespan;
  double x_sum = 0.0;
  double o_sum = 0.0;
  for (std::size_t pe = 0; pe < config.pes; ++pe) {
    x_sum += result.compute_time[pe];
    o_sum += result.schedule_time[pe];
  }
  const double w_sum = std::max(0.0, denom - x_sum - o_sum);
  if (denom > 0.0) {
    result.speedup = result.total_work * p / denom;
    result.overhead_degree = o_sum * p / denom;
    result.imbalance_degree = w_sum * p / denom;
  }
  return result;
}

}  // namespace bbn
