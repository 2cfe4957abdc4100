// Event-core microbenchmarks: the simx primitives every simulated run
// is made of, measured in isolation so a regression in the event core
// shows up here before it blurs into the end-to-end sweep numbers.
//
//   BM_EventQueuePushPop/N  steady-state push+pop against N pending
//                           events (the calendar queue's claim is that
//                           this stays flat in N; the binary-heap
//                           reference below it grows as log N)
//   BM_EventQueueHold/P     mw's pattern per chunk at P workers: pop
//                           a worker's event, push the master's reply
//                           1e-12 s ahead, pop it, push the worker's
//                           next event an exponential interval ahead
//                           (the reply takes the queue's register, so
//                           a chunk is one ring push and pop)
//   BM_BinaryHeapPushPop/N  the std::priority_queue baseline the
//                           calendar replaced, same workload (the small
//                           N are the hagerup simulator's old worker
//                           queue at P = N)
//   BM_WorkerTreeHold/P     the same hold workload on hagerup's
//                           tournament tree over P workers (fixed
//                           leaf-to-root replay, no data-dependent
//                           branches)
//   BM_ReplicaE2E/T/P       one full master-worker replica of
//                           technique T at P workers, RunContext
//                           reused across iterations (the BatchRunner
//                           inner loop); the SS rows are mw_table2's
//                           SS cells, one event pair per task, and at
//                           P = 65536 and 1048576 they also time the
//                           per-worker set-up every run pays
//   BM_HagerupReplica/P     one direct-simulator (hagerup) SS replica,
//                           n = 65536, RunContext reused: one tree
//                           update per task
//   BM_GenerateInto/R       one exponential workload buffer, n = 65536,
//                           drawn from RNG R (xoshiro or rand48) into a
//                           reused vector: the draws and the inverse-CDF
//                           log, items = tasks
//
// Record a baseline:
//   bench_simx_core --benchmark_format=json > raw.json
//   bench_to_json raw.json BENCH_simx_core.json

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "hagerup/simulator.hpp"
#include "hagerup/worker_tree.hpp"
#include "mw/config.hpp"
#include "mw/simulation.hpp"
#include "simx/event_queue.hpp"
#include "workload/random_source.hpp"
#include "workload/task_times.hpp"

namespace {

/// Deterministic 64-bit mix (splitmix64) for synthetic event times; the
/// benchmark must not depend on a seeded std:: engine's quality, only
/// on reproducible spread.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A hold-N workload: keep N events pending, each op pops the minimum
/// and pushes a replacement a pseudo-random (but deterministic) delay
/// past the popped time -- the classic calendar-queue "hold" model,
/// which matches a simulation's monotone push pattern.
void BM_EventQueuePushPop(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  simx::CalendarQueue queue;
  std::uint64_t rng = 0x0123456789abcdefull;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    const double t = static_cast<double>(mix(rng) >> 40) * 1e-4;
    queue.push(simx::Event{t, seq++});
  }
  double last = 0.0;
  for (auto _ : state) {
    const simx::Event ev = queue.pop();
    last = ev.time;
    const double delay = 1.0 + static_cast<double>(mix(rng) >> 52);
    queue.push(simx::Event{ev.time + delay, seq++});
  }
  benchmark::DoNotOptimize(last);
  state.SetItemsProcessed(state.iterations());
  state.counters["pending"] = static_cast<double>(pending);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(10240)->Arg(102400);

/// mw's chunk on the queue alone: P workers each hold one pending
/// event; a chunk pops the earliest, pushes the master's reply 1e-12 s
/// after it, pops that, and pushes the worker's next request an
/// exponential interval (mean 1) after the reply.
void BM_EventQueueHold(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  simx::CalendarQueue queue;
  std::uint64_t rng = 0x0123456789abcdefull;
  std::uint64_t seq = 0;
  const auto interval = [&rng] {
    const double u = (static_cast<double>(mix(rng) >> 11) + 0.5) * 0x1p-53;
    return -std::log(u);
  };
  for (std::size_t w = 0; w < workers; ++w) queue.push(simx::Event{interval(), seq++, w});
  for (auto _ : state) {
    const simx::Event request = queue.pop();
    queue.push(simx::Event{request.time + 1e-12, seq++, request.tag});
    const simx::Event reply = queue.pop();
    queue.push(simx::Event{reply.time + interval(), seq++, reply.tag});
  }
  benchmark::DoNotOptimize(seq);
  state.SetItemsProcessed(state.iterations());
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(256);

/// The binary-heap reference point (what the simulator used before the
/// calendar queue): identical hold-N workload.
void BM_BinaryHeapPushPop(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  const auto after = [](const simx::Event& a, const simx::Event& b) {
    return simx::EventBefore{}(b, a);
  };
  std::priority_queue<simx::Event, std::vector<simx::Event>, decltype(after)> queue(after);
  std::uint64_t rng = 0x0123456789abcdefull;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    const double t = static_cast<double>(mix(rng) >> 40) * 1e-4;
    queue.push(simx::Event{t, seq++});
  }
  double last = 0.0;
  for (auto _ : state) {
    const simx::Event ev = queue.top();
    queue.pop();
    last = ev.time;
    const double delay = 1.0 + static_cast<double>(mix(rng) >> 52);
    queue.push(simx::Event{ev.time + delay, seq++});
  }
  benchmark::DoNotOptimize(last);
  state.SetItemsProcessed(state.iterations());
  state.counters["pending"] = static_cast<double>(pending);
}
BENCHMARK(BM_BinaryHeapPushPop)
    ->Arg(2)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Arg(10240)->Arg(102400);

/// The hold workload on the hagerup worker tree: pop the earliest-free
/// worker and hand it a new next-free time, P workers always live.
void BM_WorkerTreeHold(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  hagerup::WorkerTree tree;
  tree.reset(workers);
  std::uint64_t rng = 0x0123456789abcdefull;
  for (std::size_t w = 0; w < workers; ++w) {
    tree.replace_top(static_cast<double>(mix(rng) >> 40) * 1e-4);
  }
  for (auto _ : state) {
    const double delay = 1.0 + static_cast<double>(mix(rng) >> 52);
    tree.replace_top(tree.top_time() + delay);
  }
  benchmark::DoNotOptimize(tree.top_time());
  state.SetItemsProcessed(state.iterations());
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK(BM_WorkerTreeHold)->Arg(2)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

/// One full simulated replica per iteration with a reused RunContext --
/// the exec::BatchRunner inner loop.  GSS keeps the chunk count (and so
/// the event count) proportional to P log(n/P) and runs with simulated
/// overhead on a real network, which makes the per-event cost visible
/// across three worker counts.  SS is mw_table2's SS cell: n one-task
/// chunks on the null network with analytic overhead, so nearly all of
/// its time is the serve loop -- until P outgrows n, where each run's
/// set-up of P workers (and their finalization) takes over.
void BM_ReplicaE2E(benchmark::State& state, dls::Kind technique, std::size_t tasks) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  mw::Config cfg;
  cfg.technique = technique;
  cfg.tasks = tasks;
  cfg.workers = workers;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  if (technique == dls::Kind::kGSS) {
    cfg.overhead_mode = mw::OverheadMode::kSimulated;
    cfg.bandwidth = 1e8;
    cfg.latency = 2e-6;
  }
  cfg.seed = 20170529;
  mw::RunContext context;
  double sum = 0.0;
  for (auto _ : state) {
    const mw::RunResult result = mw::run_simulation(cfg, context);
    sum += result.makespan;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cfg.tasks));
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK_CAPTURE(BM_ReplicaE2E, GSS, dls::Kind::kGSS, 16384)
    ->Unit(benchmark::kMillisecond)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ReplicaE2E, SS, dls::Kind::kSS, 65536)
    ->Unit(benchmark::kMillisecond)
    ->Arg(64)
    ->Arg(256)
    ->Arg(65536)
    ->Arg(1048576);

/// One hagerup SS replica per iteration on a reused RunContext (the
/// exec::BatchRunner inner loop for the direct simulator): 65536
/// one-task chunks, so the worker tree is updated once per task.
void BM_HagerupReplica(benchmark::State& state) {
  hagerup::Config cfg;
  cfg.technique = dls::Kind::kSS;
  cfg.pes = static_cast<std::size_t>(state.range(0));
  cfg.tasks = 65536;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 20170529;
  hagerup::RunContext context;
  double sum = 0.0;
  for (auto _ : state) {
    const hagerup::RunResult result = hagerup::run(cfg, context);
    sum += result.makespan;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cfg.tasks));
  state.counters["workers"] = static_cast<double>(cfg.pes);
}
BENCHMARK(BM_HagerupReplica)->Unit(benchmark::kMillisecond)->Arg(2)->Arg(64)->Arg(1024);

template <typename Source>
void BM_GenerateInto(benchmark::State& state) {
  const std::unique_ptr<workload::TaskTimeGenerator> gen = workload::exponential(1.0);
  Source rng(20170529u);
  std::vector<double> out;
  const std::size_t n = 65536;
  for (auto _ : state) {
    gen->generate_into(out, n, rng);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GenerateInto<workload::XoshiroSource>)->Name("BM_GenerateInto/xoshiro");
BENCHMARK(BM_GenerateInto<workload::Rand48Source>)->Name("BM_GenerateInto/rand48");

}  // namespace

BENCHMARK_MAIN();
