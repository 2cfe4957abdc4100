#include "exec/backend.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "bbn/machine_model.hpp"
#include "mw/simulation.hpp"
#include "runtime/dls_loop.hpp"

namespace exec {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void reject(std::string_view backend, const std::string& what) {
  throw std::invalid_argument(std::string(backend) + " backend cannot run this config: " + what);
}

/// The space a direct simulator (hagerup, bbn) cannot express: more
/// than one timestep, heterogeneous or perturbed workers, fail-stop
/// failures, simulated overhead, and real networks.
void reject_beyond_direct_model(std::string_view backend, const mw::Config& config) {
  if (config.timesteps > 1) {
    reject(backend, "timesteps " + std::to_string(config.timesteps) +
                        " (the direct simulator is single-timestep)");
  }
  if (!config.worker_speed_factors.empty()) reject(backend, "per-worker speed factors");
  if (!config.worker_speed_profiles.empty()) reject(backend, "worker speed profiles");
  for (const double t : config.worker_failure_times) {
    if (t < kInf) reject(backend, "fail-stop failure times");
  }
  if (config.overhead_mode == mw::OverheadMode::kSimulated) {
    reject(backend, "simulated overhead mode (inline master service has no equivalent "
                    "in the analytic direct simulator)");
  }
  // A direct simulator has no network model.  Accept the null and
  // near-null regimes (the BOLD study's "very low latency / very high
  // bandwidth" setup, mw::Config's defaults) but refuse real networks:
  // silently dropping a modeled network would present two different
  // experiments as a cross-backend comparison.
  const double per_message_delay =
      mw::message_delay(config, config.request_bytes + config.reply_bytes);
  if (!(per_message_delay <= 1e-9)) {
    reject(backend, "a non-null network (per-message delay " + std::to_string(per_message_delay) +
                        " s; the direct simulator has no network model)");
  }
}

// ---------------------------------------------------------------------------
// mw: the SimGrid-style message-passing master-worker simulation.  The
// reference backend: full Config space, paper metrics.
// ---------------------------------------------------------------------------

Measured measured(const mw::RunResult& result) {
  Measured m{result.makespan, result.avg_wasted_time, 0.0,
             static_cast<double>(result.chunk_count)};
  if (result.makespan > 0.0) m.speedup = result.total_nominal_work / result.makespan;
  return m;
}

BackendRun from_mw(const mw::Config& config, mw::RunResult result) {
  BackendRun run;
  run.backend = "mw";
  run.tasks = config.tasks;
  run.timesteps = config.timesteps;
  run.workers = config.workers;
  run.makespan = result.makespan;
  run.total_nominal_work = result.total_nominal_work;
  run.chunk_count = result.chunk_count;
  run.tasks_reclaimed = result.tasks_reclaimed;
  run.measured = measured(result);
  run.worker_stats = std::move(result.workers);
  run.chunk_log = std::move(result.chunk_log);
  run.range_log = std::move(result.range_log);
  return run;
}

class MwBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override { return "mw"; }
  void validate(const mw::Config& config) const override {
    // The full space but inline overhead, which needs a worker timeline
    // that only the direct simulator has.
    if (config.overhead_mode == mw::OverheadMode::kInline) reject("mw", "inline overhead");
  }
  [[nodiscard]] bool virtual_time() const override { return true; }

  [[nodiscard]] BackendRun run(const mw::Config& config) override {
    mw::Config cfg = config;
    cfg.record_chunk_log = true;
    return from_mw(cfg, mw::run_simulation(cfg, context_));
  }

  [[nodiscard]] Measured measure(const mw::Config& config) override {
    return measured(mw::run_simulation(config, context_));
  }

 private:
  mw::RunContext context_;
};

// ---------------------------------------------------------------------------
// hagerup and bbn: the one direct simulator, hagerup::run.  Single
// timestep, homogeneous, failure-free; network parameters do not exist
// in its model.  Overhead is accounted analytically, matching mw's
// OverheadMode::kAnalytic, unless a hagerup spec asks for `overhead
// inline` (charge_overhead_inline: h on the worker's timeline).
//
// "hagerup" is the replicated BOLD-publication simulator.  "bbn" runs
// the same loop on the machine model of the TSS publication's BBN
// GP-1000, the original side of paper Figures 3-4 (bbn::on_machine,
// with the published constants of bbn::MachineModel's defaults); it
// expresses what hagerup does, minus rand48, and reports its own
// numbers: Tzen-Ni's r as the speedup, the inflated executed work as
// the nominal work, and the wasted time without an h term.
// ---------------------------------------------------------------------------

Measured measured(const hagerup::RunResult& result, bool bbn) {
  Measured m{result.makespan, result.avg_wasted_time, 0.0,
             static_cast<double>(result.chunk_count)};
  if (bbn) {
    // Mean over PEs of makespan - compute time: scheduling plus
    // waiting, with no analytic h term.
    m.avg_wasted_time = result.idle_sum / static_cast<double>(result.compute_time.size());
    // Tzen-Ni's r exactly as bbn::tzen_ni computes it: recomputing it
    // as executed work / makespan would differ in the last bits.
    m.speedup = bbn::tzen_ni(result).speedup;
  } else if (result.makespan > 0.0) {
    // Executed task times ARE the nominal times in the direct
    // simulator, so this matches mw's total-nominal-work / makespan.
    m.speedup = result.total_work / result.makespan;
  }
  return m;
}

/// bbn reports the inflated executed work as its nominal work.
BackendRun from_hagerup(const hagerup::Config& config, const hagerup::RunResult& result,
                        bool bbn) {
  BackendRun run;
  run.backend = bbn ? "bbn" : "hagerup";
  run.tasks = config.tasks;
  run.timesteps = 1;
  run.workers = config.pes;
  run.makespan = result.makespan;
  run.total_nominal_work = bbn ? result.executed_work : result.total_work;
  run.chunk_count = result.chunk_count;
  run.measured = measured(result, bbn);
  run.worker_stats.resize(config.pes);
  for (std::size_t w = 0; w < config.pes; ++w) {
    run.worker_stats[w].compute_time = result.compute_time[w];
    run.worker_stats[w].chunks = result.chunks[w];
  }
  // One served range per chunk, and each chunk's tasks credited to its
  // worker.
  run.chunk_log.reserve(result.chunk_log.size());
  run.range_log.reserve(result.chunk_log.size());
  for (const hagerup::ChunkLogEntry& entry : result.chunk_log) {
    run.range_log.push_back(mw::ServedRangeEntry{run.chunk_log.size(), entry.first, entry.size});
    run.chunk_log.push_back(
        mw::ChunkLogEntry{entry.pe, entry.first, entry.size, entry.issued_at, entry.work_seconds});
    run.worker_stats[entry.pe].tasks += entry.size;
  }
  return run;
}

class DirectBackend final : public Backend {
 public:
  explicit DirectBackend(bool bbn) : bbn_(bbn) {}

  [[nodiscard]] std::string_view name() const override { return bbn_ ? "bbn" : "hagerup"; }
  [[nodiscard]] bool virtual_time() const override { return true; }

  void validate(const mw::Config& config) const override {
    reject_beyond_direct_model(name(), config);
    if (bbn_ && config.use_rand48) {
      reject("bbn", "rand48 task times (the machine model draws from xoshiro)");
    }
    if (bbn_ && config.overhead_mode == mw::OverheadMode::kInline) {
      reject("bbn", "inline overhead (the machine model charges its own dispatch cost)");
    }
  }

  [[nodiscard]] BackendRun run(const mw::Config& config) override {
    hagerup::Config cfg = convert(config);
    cfg.record_chunk_log = true;
    return from_hagerup(cfg, hagerup::run(cfg, context_), bbn_);
  }

  [[nodiscard]] Measured measure(const mw::Config& config) override {
    return measured(hagerup::run(convert(config), context_), bbn_);
  }

 private:
  [[nodiscard]] hagerup::Config convert(const mw::Config& mc) const {
    validate(mc);
    hagerup::Config config;
    config.technique = mc.technique;
    config.params = mc.params;
    config.pes = mc.workers;
    config.tasks = mc.tasks;
    config.workload = mc.workload;
    config.seed = mc.seed;
    config.use_rand48 = mc.use_rand48;
    config.charge_overhead_inline = mc.overhead_mode == mw::OverheadMode::kInline;
    return bbn_ ? bbn::on_machine(config) : config;
  }

  bool bbn_;
  hagerup::RunContext context_;
};

// ---------------------------------------------------------------------------
// runtime: the native threaded executor.  Real threads and wall-clock
// timing, so only structural invariants apply and records are not
// byte-reproducible.  Timesteps run as consecutive loops on one
// executor (adaptive state persists across steps, exactly like the
// simulated time-stepping application); replicas reset() it.
// ---------------------------------------------------------------------------

/// Wall-clock numbers: the busy time stands in for the total work.
Measured measured(const BackendRun& run) {
  Measured m{run.makespan, 0.0, 0.0, static_cast<double>(run.chunk_count)};
  double busy = 0.0;
  double wasted = 0.0;
  for (const mw::WorkerStats& w : run.worker_stats) {
    busy += w.compute_time;
    wasted += run.makespan - w.compute_time;
  }
  m.avg_wasted_time = wasted / static_cast<double>(run.workers);
  if (run.makespan > 0.0) m.speedup = busy / run.makespan;
  return m;
}

class RuntimeBackend final : public Backend {
 public:
  explicit RuntimeBackend(const BackendOptions& options) : options_(options) {}

  [[nodiscard]] std::string_view name() const override { return "runtime"; }
  void validate(const mw::Config&) const override {}  // structural subset of everything
  [[nodiscard]] bool virtual_time() const override { return false; }

  [[nodiscard]] BackendRun run(const mw::Config& config) override {
    return execute(config, /*record_chunk_log=*/true);
  }

  [[nodiscard]] Measured measure(const mw::Config& config) override {
    return execute(config, /*record_chunk_log=*/false).measured;
  }

 private:
  [[nodiscard]] BackendRun execute(const mw::Config& config, bool record_chunk_log) {
    const std::size_t cap =
        options_.runtime_task_cap == 0 ? config.tasks : options_.runtime_task_cap;
    const std::size_t n = std::min(config.tasks, std::max<std::size_t>(cap, 1));
    unsigned threads = static_cast<unsigned>(config.workers);
    if (options_.runtime_max_threads != 0) {
      threads = std::min(threads, options_.runtime_max_threads);
    }

    runtime::DlsLoopExecutor::Options executor_options;
    executor_options.technique = config.technique;
    executor_options.params = config.params;
    executor_options.threads = threads;
    // Per-PE weights are sized for the config's workers; the native
    // executor runs with its own (possibly capped) thread count.
    if (!executor_options.params.weights.empty()) {
      executor_options.params.weights.resize(threads, 1.0);
    }
    executor_options.record_chunk_log = record_chunk_log;
    if (executor_ == nullptr || cached_technique_ != config.technique ||
        cached_threads_ != threads || cached_log_ != record_chunk_log ||
        cached_params_ != executor_options.params) {
      executor_ = std::make_unique<runtime::DlsLoopExecutor>(executor_options);
      cached_technique_ = config.technique;
      cached_threads_ = threads;
      cached_log_ = record_chunk_log;
      cached_params_ = executor_options.params;
    } else {
      // Reuse the cached executor but start scheduling from scratch:
      // this run is an independent replica, not another timestep.
      executor_->reset();
    }

    BackendRun out;
    out.backend = "runtime";
    out.tasks = n;
    out.timesteps = config.timesteps;
    out.workers = executor_->threads();
    out.virtual_time = false;
    out.worker_stats.resize(out.workers);
    for (std::size_t step = 0; step < config.timesteps; ++step) {
      // Consecutive run() calls with an unchanged n are timesteps:
      // adaptive technique state persists, as in the mw application.
      const runtime::LoopStats stats =
          executor_->run(n, [](std::size_t, std::size_t) {});
      out.makespan += stats.wall_seconds;
      out.chunk_count += stats.chunks;
      for (unsigned t = 0; t < out.workers; ++t) {
        out.worker_stats[t].compute_time += stats.busy_seconds_per_thread[t];
        out.worker_stats[t].tasks += stats.tasks_per_thread[t];
        out.worker_stats[t].chunks += stats.chunks_per_thread[t];
      }
      for (const runtime::LoopChunk& chunk : stats.chunk_log) {
        out.range_log.push_back(
            mw::ServedRangeEntry{out.chunk_log.size(), chunk.first, chunk.size});
        out.chunk_log.push_back(mw::ChunkLogEntry{chunk.thread, chunk.first, chunk.size, 0.0, 0.0});
      }
    }
    out.measured = measured(out);
    return out;
  }

  BackendOptions options_;
  std::unique_ptr<runtime::DlsLoopExecutor> executor_;
  dls::Kind cached_technique_{};
  dls::Params cached_params_;
  unsigned cached_threads_ = 0;
  bool cached_log_ = false;
};

}  // namespace

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> kNames = {"bbn", "hagerup", "mw", "runtime"};
  return kNames;
}

bool is_backend_name(std::string_view name) {
  for (const std::string& known : backend_names()) {
    if (known == name) return true;
  }
  return false;
}

std::string unknown_backend_message(std::string_view name) {
  std::string known;
  for (const std::string& n : backend_names()) {
    if (!known.empty()) known += " | ";
    known += n;
  }
  return "unknown backend '" + std::string(name) + "' (known: " + known + ")";
}

std::unique_ptr<Backend> make_backend(std::string_view name, const BackendOptions& options) {
  if (name == "mw") return std::make_unique<MwBackend>();
  if (name == "bbn") return std::make_unique<DirectBackend>(/*bbn=*/true);
  if (name == "hagerup") return std::make_unique<DirectBackend>(/*bbn=*/false);
  if (name == "runtime") return std::make_unique<RuntimeBackend>(options);
  throw std::invalid_argument(unknown_backend_message(name));
}

}  // namespace exec
