// End-to-end sweep benchmark: exec::BatchRunner over the Table-2-style
// grid (technique x workers x tasks) declared in
// bench/specs/e2e_sweep.sweep -- the same sweep spec dls_sweep runs,
// so the timed grid and the grid service cannot drift apart.
//
// BM_E2ESweep pins the runner to one thread so it measures the serve
// path itself (this is the number tracked in BENCH_e2e_sweep.json);
// BM_E2ESweepParallel sweeps the persistent pool's width (second
// benchmark argument: 1/2/4 threads) so the committed artifact records
// the batch-scaling trajectory, not a single opaque "parallel" number.
//
// Record a baseline:
//   bench_e2e_sweep --benchmark_format=json > raw.json
//   bench_to_json raw.json BENCH_e2e_sweep.json

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/grid.hpp"

#ifndef DLS_SWEEP_SPEC_DIR
#define DLS_SWEEP_SPEC_DIR "bench/specs"
#endif

namespace {

const sweep::Grid& e2e_grid() {
  static const sweep::Grid grid = [] {
    const char* env = std::getenv("DLS_SWEEP_SPEC");
    const std::string path =
        env != nullptr ? env : std::string(DLS_SWEEP_SPEC_DIR) + "/e2e_sweep.sweep";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("bench_e2e_sweep: cannot open sweep spec " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return sweep::parse_grid(buffer.str());
  }();
  return grid;
}

/// The jobs of the spec's cells with the given task count (one
/// google-benchmark Arg per `tasks` axis value).
std::vector<exec::BatchJob> sweep_jobs(std::size_t tasks) {
  const sweep::Grid& grid = e2e_grid();
  std::vector<exec::BatchJob> jobs;
  for (std::size_t i = 0; i < grid.cells(); ++i) {
    const sweep::Cell c = sweep::cell(grid, i);
    if (c.spec.config.tasks != tasks) continue;
    jobs.push_back(sweep::batch_job(grid, c));
  }
  if (jobs.empty()) {
    throw std::runtime_error("bench_e2e_sweep: no cells with tasks = " + std::to_string(tasks) +
                             " in the sweep spec");
  }
  return jobs;
}

void run_sweep(benchmark::State& state, unsigned threads) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  const std::vector<exec::BatchJob> jobs = sweep_jobs(tasks);
  std::size_t runs_per_sweep = 0;
  for (const exec::BatchJob& job : jobs) runs_per_sweep += job.replicas;

  exec::BatchRunner::Options options;
  options.threads = threads;
  const exec::BatchRunner runner(options);

  double checksum = 0.0;
  for (auto _ : state) {
    const std::vector<exec::BatchResult> results = runner.run(jobs);
    for (const exec::BatchResult& r : results) checksum += r.makespan.mean;
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(runs_per_sweep));
  state.counters["runs_per_sweep"] = static_cast<double>(runs_per_sweep);
  state.counters["tasks"] = static_cast<double>(tasks);
}

void BM_E2ESweep(benchmark::State& state) { run_sweep(state, /*threads=*/1); }
BENCHMARK(BM_E2ESweep)->Unit(benchmark::kMillisecond)->Arg(65536)->Arg(131072);

void BM_E2ESweepParallel(benchmark::State& state) {
  run_sweep(state, static_cast<unsigned>(state.range(1)));
}
BENCHMARK(BM_E2ESweepParallel)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{65536, 131072}, {1, 2, 4}})
    // Work happens on pool threads: rates must come from wall clock,
    // not the benchmark thread's CPU time (which shrinks with width
    // and would fake a speedup).
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
