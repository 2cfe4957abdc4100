#include "exec/backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bbn/machine_model.hpp"
#include "mw/simulation.hpp"
#include "runtime/dls_loop.hpp"

namespace exec {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void reject(const char* backend, const std::string& what) {
  throw std::invalid_argument(std::string(backend) + " backend cannot run this config: " + what);
}

/// The space a direct simulator (hagerup, bbn) cannot express: more
/// than one timestep, heterogeneous or perturbed workers, fail-stop
/// failures, simulated overhead, and real networks.
void reject_beyond_direct_model(const char* backend, const mw::Config& config) {
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
      config.latency +
      static_cast<double>(config.request_bytes + config.reply_bytes) / config.bandwidth;
  if (!(per_message_delay <= 1e-9)) {
    reject(backend, "a non-null network (per-message delay " + std::to_string(per_message_delay) +
                        " s; the direct simulator has no network model)");
  }
}

/// Appends a direct simulator's chunk log to `run`: one served range
/// per chunk, and each chunk's tasks credited to its worker.
template <class Entry>
void append_chunk_log(BackendRun& run, const std::vector<Entry>& log) {
  run.chunk_log.reserve(log.size());
  run.range_log.reserve(log.size());
  for (const Entry& entry : log) {
    run.range_log.push_back(mw::ServedRangeEntry{run.chunk_log.size(), entry.first, entry.size});
    run.chunk_log.push_back(
        mw::ChunkLogEntry{entry.pe, entry.first, entry.size, entry.issued_at, entry.work_seconds});
    run.worker_stats[entry.pe].tasks += entry.size;
  }
}

/// Field-wise equality of the Table I parameters (dls::Params has no
/// operator==); the runtime executor cache must rebuild whenever any
/// scheduling knob changes.
bool params_equal(const dls::Params& a, const dls::Params& b) {
  return a.p == b.p && a.n == b.n && a.h == b.h && a.mu == b.mu && a.sigma == b.sigma &&
         a.css_chunk == b.css_chunk && a.gss_min_chunk == b.gss_min_chunk &&
         a.tss_first == b.tss_first && a.tss_last == b.tss_last &&
         a.tap_v_alpha == b.tap_v_alpha && a.weights == b.weights && a.rnd_min == b.rnd_min &&
         a.rnd_max == b.rnd_max && a.rnd_seed == b.rnd_seed;
}

// ---------------------------------------------------------------------------
// mw: the SimGrid-style message-passing master-worker simulation.  The
// reference backend: full Config space, paper metrics.
// ---------------------------------------------------------------------------

class MwBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override { return "mw"; }
  void validate(const mw::Config&) const override {}  // the full space
  [[nodiscard]] bool virtual_time() const override { return true; }
  [[nodiscard]] bool deterministic() const override { return true; }

  [[nodiscard]] BackendRun run(const mw::Config& config) override {
    mw::Config cfg = config;
    cfg.record_chunk_log = true;
    return from_mw(cfg, mw::run_simulation(cfg, context_));
  }

  [[nodiscard]] Measured measure(const mw::Config& config) override {
    const mw::RunResult result = mw::run_simulation(config, context_);
    const mw::Metrics metrics = mw::compute_metrics(result, config);
    return Measured{metrics.makespan, metrics.avg_wasted_time, metrics.speedup,
                    static_cast<double>(metrics.chunks)};
  }

 private:
  mw::RunContext context_;
};

// ---------------------------------------------------------------------------
// hagerup: the replicated BOLD-publication direct simulator.  Single
// timestep, homogeneous, failure-free; network parameters do not exist
// in its model and are ignored.  Overhead is accounted analytically
// (charge_overhead_inline = false), matching mw's OverheadMode::kAnalytic.
// ---------------------------------------------------------------------------

class HagerupBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override { return "hagerup"; }
  [[nodiscard]] bool virtual_time() const override { return true; }
  [[nodiscard]] bool deterministic() const override { return true; }

  void validate(const mw::Config& config) const override {
    reject_beyond_direct_model("hagerup", config);
  }

  [[nodiscard]] BackendRun run(const mw::Config& config) override {
    hagerup::Config cfg = convert(config);
    cfg.record_chunk_log = true;
    return from_hagerup(cfg, hagerup::run(cfg, context_));
  }

  [[nodiscard]] Measured measure(const mw::Config& config) override {
    const hagerup::Config cfg = convert(config);
    const hagerup::RunResult result = hagerup::run(cfg, context_);
    Measured m;
    m.makespan = result.makespan;
    m.avg_wasted_time = result.avg_wasted_time;
    // Executed task times ARE the nominal times in the direct
    // simulator, so this matches mw's total-nominal-work / makespan.
    if (result.makespan > 0.0) m.speedup = result.total_work / result.makespan;
    m.chunks = static_cast<double>(result.chunk_count);
    return m;
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
    config.charge_overhead_inline = false;  // match mw's analytic accounting
    return config;
  }

  hagerup::RunContext context_;
};

// ---------------------------------------------------------------------------
// bbn: the machine model of the TSS publication's BBN GP-1000, the
// original side of paper Figures 3-4.  It expresses what hagerup does,
// minus rand48: its task times come from xoshiro.  The machine
// constants are the published ones (bbn::MachineModel's defaults).
// ---------------------------------------------------------------------------

class BbnBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override { return "bbn"; }
  [[nodiscard]] bool virtual_time() const override { return true; }
  [[nodiscard]] bool deterministic() const override { return true; }

  void validate(const mw::Config& config) const override {
    reject_beyond_direct_model("bbn", config);
    if (config.use_rand48) {
      reject("bbn", "rand48 task times (the machine model draws from xoshiro)");
    }
  }

  [[nodiscard]] BackendRun run(const mw::Config& config) override {
    bbn::Config cfg = convert(config);
    cfg.record_chunk_log = true;
    const bbn::RunResult result = bbn::run(cfg);
    BackendRun run;
    run.backend = "bbn";
    run.tasks = cfg.tasks;
    run.workers = cfg.pes;
    run.makespan = result.makespan;
    run.total_nominal_work = result.total_work;  // inflated by remote references
    run.chunk_count = result.chunk_count;
    run.worker_stats.resize(cfg.pes);
    for (std::size_t pe = 0; pe < cfg.pes; ++pe) {
      run.worker_stats[pe].compute_time = result.compute_time[pe];
    }
    for (const bbn::ChunkLogEntry& entry : result.chunk_log) ++run.worker_stats[entry.pe].chunks;
    append_chunk_log(run, result.chunk_log);
    return run;
  }

  [[nodiscard]] Measured measure(const mw::Config& config) override {
    const bbn::Config cfg = convert(config);
    const bbn::RunResult result = bbn::run(cfg);
    Measured m;
    m.makespan = result.makespan;
    // Mean over PEs of makespan - compute time: scheduling plus waiting.
    double wasted = 0.0;
    for (const double x : result.compute_time) wasted += result.makespan - x;
    m.avg_wasted_time = wasted / static_cast<double>(cfg.pes);
    // Tzen-Ni's r exactly as the model computes it: recomputing it as
    // total_work / makespan would differ in the last bits.
    m.speedup = result.speedup;
    m.chunks = static_cast<double>(result.chunk_count);
    return m;
  }

 private:
  [[nodiscard]] bbn::Config convert(const mw::Config& mc) const {
    validate(mc);
    bbn::Config config;
    config.technique = mc.technique;
    config.params = mc.params;
    config.pes = mc.workers;
    config.tasks = mc.tasks;
    config.workload = mc.workload;
    config.seed = mc.seed;
    return config;
  }
};

// ---------------------------------------------------------------------------
// runtime: the native threaded executor.  Real threads and wall-clock
// timing, so only structural invariants apply and records are not
// byte-reproducible.  Timesteps run as consecutive loops on one
// executor (adaptive state persists across steps, exactly like the
// simulated time-stepping application); replicas reset() it.
// ---------------------------------------------------------------------------

class RuntimeBackend final : public Backend {
 public:
  explicit RuntimeBackend(const BackendOptions& options) : options_(options) {}

  [[nodiscard]] std::string_view name() const override { return "runtime"; }
  void validate(const mw::Config&) const override {}  // structural subset of everything
  [[nodiscard]] bool virtual_time() const override { return false; }
  [[nodiscard]] bool deterministic() const override { return false; }

  [[nodiscard]] BackendRun run(const mw::Config& config) override {
    return execute(config, /*record_chunk_log=*/true);
  }

  [[nodiscard]] Measured measure(const mw::Config& config) override {
    const BackendRun run = execute(config, /*record_chunk_log=*/false);
    Measured m;
    m.makespan = run.makespan;
    double busy = 0.0;
    double wasted = 0.0;
    for (const mw::WorkerStats& w : run.worker_stats) {
      busy += w.compute_time;
      wasted += run.makespan - w.compute_time;
    }
    m.avg_wasted_time = wasted / static_cast<double>(run.workers);
    if (run.makespan > 0.0) m.speedup = busy / run.makespan;
    m.chunks = static_cast<double>(run.chunk_count);
    return m;
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
        !params_equal(cached_params_, executor_options.params)) {
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

std::unique_ptr<Backend> make_backend(std::string_view name, const BackendOptions& options) {
  if (name == "mw") return std::make_unique<MwBackend>();
  if (name == "bbn") return std::make_unique<BbnBackend>();
  if (name == "hagerup") return std::make_unique<HagerupBackend>();
  if (name == "runtime") return std::make_unique<RuntimeBackend>(options);
  std::string known;
  for (const std::string& n : backend_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown backend '" + std::string(name) + "' (known: " + known +
                              ")");
}

bool backend_is_virtual(std::string_view name, const BackendOptions& options) {
  return make_backend(name, options)->virtual_time();
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
  run.metrics = mw::compute_metrics(result, config);
  run.worker_stats = std::move(result.workers);
  run.chunk_log = std::move(result.chunk_log);
  run.range_log = std::move(result.range_log);
  return run;
}

BackendRun from_hagerup(const hagerup::Config& config, const hagerup::RunResult& result) {
  BackendRun run;
  run.backend = "hagerup";
  run.tasks = config.tasks;
  run.timesteps = 1;
  run.workers = config.pes;
  run.makespan = result.makespan;
  run.total_nominal_work = result.total_work;
  run.chunk_count = result.chunk_count;
  run.worker_stats.resize(config.pes);
  for (std::size_t w = 0; w < config.pes; ++w) {
    run.worker_stats[w].compute_time = result.compute_time[w];
    run.worker_stats[w].chunks = result.chunks[w];
  }
  append_chunk_log(run, result.chunk_log);
  return run;
}

}  // namespace exec
