// perfbench_pass: the native half of the sweep benchmark (perfbench/run.py).
//
//   perfbench_pass time  --spec S --out O --width W [--dist --dls-sweep B --workdir D]
//       One fresh pass, as one dls_sweep invocation runs it: set up from
//       the spec text, run the whole grid, write the JSONL records to O.
//   perfbench_pass trace --spec S --ref R --outdir D --width W --trace-out T
//                        [--dist --dls-sweep B]
//       The traced run: spans around the calls into each layer, per-layer
//       metrics, the accounting closure and the tracing overhead.
//
// In-process passes run sweep::SweepRunner at pool width W.  --dist runs
// dist::Coordinator in serve mode on 127.0.0.1 with W-1 one-thread
// `dls_sweep work --connect` worker processes.  Prints one JSON object
// on stdout; run.py checks every output file against the reference.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dls/technique.hpp"
#include "exec/backend.hpp"
#include "exec/batch.hpp"
#include "net/frame.hpp"
#include "stats/summary.hpp"
#include "sweep/grid.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "tracer.hpp"
#include "workload/random_source.hpp"

extern char** environ;

namespace {

using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::Tracer;

/// Largest tolerated |summed layer times - measured serial sweep time| /
/// measured serial sweep time, over the whole grid, in the traced run.
/// run.py marks a traced run that exceeds it as incorrect.
constexpr double kClosureTolerance = 0.10;

/// Repetitions of the serial pass with its per-cell layer replay in the
/// traced run; the one with the median closure error is reported.  One
/// repetition's closure can miss by 10% when other load on a shared host
/// slows one side of a second-long SS cell but not the other.
constexpr int kClosureRepeats = 3;

/// Repetitions of each record-path microbenchmark in the traced run.
constexpr int kRecordRepeats = 3;

/// The in-process set-up is repeated this many times per pass and its
/// median reported: one repetition takes tens of microseconds.
constexpr int kSetupRepeats = 15;

double since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- arguments, files, JSON ---------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + key);
      if (key == "--dist") {
        values_["dist"] = "1";
      } else if (i + 1 < argc) {
        values_[key.substr(2)] = argv[++i];
      } else {
        throw std::invalid_argument(key + " needs a value");
      }
    }
  }
  [[nodiscard]] bool has(const std::string& key) const { return values_.contains(key); }
  [[nodiscard]] const std::string& get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] unsigned width() const {
    const unsigned w = static_cast<unsigned>(std::stoul(get("width")));
    if (w == 0) throw std::invalid_argument("--width must be >= 1");
    return w;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

long self_peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void print_json(const std::map<std::string, double>& numbers,
                const std::vector<std::string>& outputs) {
  std::cout << std::setprecision(17) << "{";
  for (const auto& [key, value] : numbers) std::cout << "\"" << key << "\": " << value << ", ";
  std::cout << "\"outputs\": [";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << outputs[i] << "\"";
  }
  std::cout << "]}\n";
}

/// Nearest-rank percentile (q in [0, 1]) of a non-empty sample.
double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()) + 0.999999);
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// ---- set-up --------------------------------------------------------------

struct PassTimes {
  double setup_s = 0.0;
  double sweep_s = 0.0;
  Clock::time_point sweep_start;
};

/// Set-up as one dls_sweep invocation does it: parse the grid and build
/// the runner.  (SweepRunner expands the cells lazily, one window at a
/// time, and the shared pool starts its threads at the first parallel
/// region: both happen inside the sweep.)  Returns the median of
/// kSetupRepeats repetitions in seconds.
double median_setup_s(const std::string& text, unsigned width, Tracer* tracer) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const ScopedSpan span(tracer, "setup");
    const Clock::time_point start = Clock::now();
    const sweep::Grid grid = sweep::parse_grid(text);
    const sweep::SweepRunner runner(sweep::SweepRunner::Options{.threads = width});
    seconds.push_back(since(start, Clock::now()));
  }
  return percentile(seconds, 0.5);
}

// ---- in-process pass -----------------------------------------------------

/// One in-process pass: set up, then run the whole grid through a fresh
/// SweepRunner at `width` on the shared pool.  A tracer gets the set-up
/// spans and one span per committed cell; otherwise `observer` (if any)
/// runs after each committed record, on the committing thread.
PassTimes run_inproc(const std::string& text, unsigned width, const std::string& out_path,
                     Tracer* tracer, const sweep::SweepRunner::Observer& observer = {}) {
  PassTimes times;
  times.setup_s = median_setup_s(text, width, tracer);
  const sweep::Grid grid = sweep::parse_grid(text);
  const sweep::SweepRunner runner(sweep::SweepRunner::Options{.threads = width});
  times.sweep_start = Clock::now();

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  std::size_t run_span = Tracer::kRoot;
  Clock::time_point last_commit = times.sweep_start;
  sweep::SweepRunner::Observer on_commit = observer;
  if (tracer != nullptr) {
    on_commit = [&](const sweep::SweepRunner::CellEvent&) {
      const Clock::time_point now = Clock::now();
      tracer->add("sweep.cell", last_commit, now, run_span);
      last_commit = now;
    };
  }
  {
    const ScopedSpan span(tracer, "sweep.run");
    run_span = span.id();
    (void)runner.run(grid, {}, out, on_commit);
    out.flush();
  }
  if (!out) throw std::runtime_error("failed writing " + out_path);
  times.sweep_s = since(times.sweep_start, Clock::now());
  return times;
}

// ---- distributed pass ----------------------------------------------------

/// The `dls_sweep work --connect` processes of one distributed pass.
/// Whatever happens, every worker is reaped before this object dies.
class WorkerProcesses {
 public:
  WorkerProcesses() = default;
  WorkerProcesses(const WorkerProcesses&) = delete;
  WorkerProcesses& operator=(const WorkerProcesses&) = delete;
  ~WorkerProcesses() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  void spawn(std::vector<std::string> argv) {
    std::vector<char*> c_argv;
    for (std::string& arg : argv) c_argv.push_back(arg.data());
    c_argv.push_back(nullptr);
    // Workers report on stderr only; stdout carries this pass's JSON.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, c_argv[0], &actions, nullptr, c_argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error(argv[0] + ": spawn failed: " + std::strerror(rc));
    pids_.push_back(pid);
  }

  /// Wait for every worker; returns the sum of their peak resident set
  /// sizes in KiB.  Throws if a worker did not exit 0.
  long reap() {
    long rss_kb = 0;
    std::string failure;
    while (!pids_.empty()) {
      int status = 0;
      rusage usage{};
      const pid_t pid = pids_.back();
      if (::wait4(pid, &status, 0, &usage) < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
      }
      pids_.pop_back();
      rss_kb += usage.ru_maxrss;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) failure = "a worker exited abnormally";
    }
    if (!failure.empty()) throw std::runtime_error(failure);
    return rss_kb;
  }

 private:
  std::vector<pid_t> pids_;
};

struct TimedEvent {
  dist::LeaseEvent event;
  Clock::time_point at;
};

struct DistPass {
  PassTimes times;
  long workers_rss_kb = 0;
  dist::CoordinatorReport report;
  std::vector<TimedEvent> events;
  Clock::time_point end;
};

/// One distributed pass.  Set-up runs from the spec file to the last
/// worker's HELLO (the coordinator's grid parse, listener bind, worker
/// spawn, connect and handshake); the sweep runs from there to the
/// merged output being written.
DistPass run_dist(const Args& args, unsigned width, const std::string& out_path,
                  const std::string& workdir, Tracer* tracer) {
  const std::size_t workers = std::max(1u, width - 1);
  DistPass pass;
  const Clock::time_point t0 = Clock::now();
  const std::size_t setup = tracer != nullptr ? tracer->begin("setup") : Tracer::kRoot;

  if (::mkdir(workdir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("mkdir " + workdir + ": " + std::strerror(errno));
  }
  dist::CoordinatorOptions options;
  options.spec_path = args.get("spec");
  options.out_path = out_path;
  options.workdir = workdir + "/coordinator";
  options.listen = "127.0.0.1:0";
  options.workers = workers;
  options.worker_threads = 1;
  WorkerProcesses processes;
  const std::string dls_sweep = args.get("dls-sweep");
  options.on_listening = [&](std::uint16_t port) {
    for (std::size_t w = 0; w < workers; ++w) {
      processes.spawn({dls_sweep, "work", "--connect", "127.0.0.1:" + std::to_string(port),
                       "--dir", workdir + "/worker" + std::to_string(w), "--threads", "1"});
    }
  };
  std::size_t hellos = 0;
  Clock::time_point ready{};
  options.on_event = [&](const dist::LeaseEvent& event) {
    const Clock::time_point now = Clock::now();
    pass.events.push_back(TimedEvent{event, now});
    if (event.kind == "hello" && ++hellos == workers) ready = now;
  };

  dist::Coordinator coordinator(options);
  pass.report = coordinator.run();
  pass.end = Clock::now();
  pass.workers_rss_kb = processes.reap();
  if (hellos < workers) {
    throw std::runtime_error("only " + std::to_string(hellos) + " of " +
                             std::to_string(workers) + " workers said hello");
  }
  pass.times.sweep_start = ready;
  pass.times.setup_s = since(t0, ready);
  pass.times.sweep_s = since(ready, pass.end);
  if (tracer != nullptr) tracer->end(setup, ready);
  return pass;
}

// ---- time mode -----------------------------------------------------------

int time_mode(const Args& args) {
  const unsigned width = args.width();
  std::map<std::string, double> numbers;
  if (args.has("dist")) {
    const DistPass pass = run_dist(args, width, args.get("out"), args.get("workdir"), nullptr);
    numbers["setup_s"] = pass.times.setup_s;
    numbers["sweep_s"] = pass.times.sweep_s;
    numbers["rss_kb"] = static_cast<double>(self_peak_rss_kb() + pass.workers_rss_kb);
    numbers["reclaims"] = static_cast<double>(pass.report.reclaims);
    numbers["retries"] = static_cast<double>(pass.report.retries);
  } else {
    const PassTimes times =
        run_inproc(read_file(args.get("spec")), width, args.get("out"), nullptr);
    numbers["setup_s"] = times.setup_s;
    numbers["sweep_s"] = times.sweep_s;
    numbers["rss_kb"] = static_cast<double>(self_peak_rss_kb());
    numbers["reclaims"] = 0.0;
    numbers["retries"] = 0.0;
  }
  print_json(numbers, {args.get("out")});
  return 0;
}

// ---- trace mode: the layer replay ----------------------------------------

std::unique_ptr<workload::RandomSource> make_rng(const mw::Config& config) {
  if (config.use_rand48) {
    return std::make_unique<workload::Rand48Source>(static_cast<std::uint32_t>(config.seed));
  }
  return std::make_unique<workload::XoshiroSource>(config.seed);
}

mw::Config replica_config(const exec::BatchJob& job, std::size_t replica) {
  mw::Config config = job.config;
  config.seed = job.config.seed + job.seed_stride * replica;
  return config;
}

struct ReplayCounts {
  double tasks = 0.0;            ///< task times generated
  double technique_calls = 0.0;  ///< next_chunk calls replayed
  std::map<std::string, double> chunks;  ///< scheduled chunks, by backend
};

/// One cell's layer replay, made right after the serial runner committed
/// the cell.
struct ReplayedCell {
  exec::BatchJob job;
  std::vector<std::size_t> measure_spans;
  double runner_s = 0.0;  ///< the serial runner's own time on the cell
  double layers_s = 0.0;  ///< summed durations of the replayed layer calls
};

/// Replays cells through the layers' public functions, one cell at a
/// time, from the serial SweepRunner's commit callback: the runner has
/// just spent `runner_s` on the cell, and the replay repeats that work
/// layer by layer at once, so both see the same machine speed.
class CellReplay {
 public:
  CellReplay(const sweep::Grid& grid, Tracer& tracer, const std::string& out_path)
      : grid_(grid), tracer_(tracer), renderer_(grid), out_(out_path, std::ios::trunc) {
    if (!out_) throw std::runtime_error("cannot write " + out_path);
  }

  /// Expand, BatchRunner::run_one, Backend::measure of every replica,
  /// stats::summarize, render and commit.  The measure calls and the
  /// summary are recorded as children of the run_one span whose work
  /// they repeat.
  void replay(std::size_t index, double runner_s) {
    ReplayedCell c;
    c.runner_s = runner_s;
    const ScopedSpan root(&tracer_, "replay.cell");
    const auto layer = [&](const char* name, std::size_t parent, auto&& body) {
      std::size_t id = Tracer::kRoot;
      {
        const ScopedSpan span(&tracer_, name, parent);
        id = span.id();
        body(id);
      }
      c.layers_s += tracer_.seconds(id);
    };
    sweep::Cell cell;
    layer("sweep.expand", root.id(), [&](std::size_t) {
      cell = sweep::cell(grid_, index);
      c.job = sweep::batch_job(grid_, cell);
    });
    if (c.job.backend != "mw" && c.job.backend != "hagerup") {
      throw std::runtime_error("the replay covers the mw and hagerup backends, not " +
                               c.job.backend);
    }
    auto& backend = backends_[c.job.backend];
    if (backend == nullptr) backend = exec::make_backend(c.job.backend);
    const char* measure_name = c.job.backend == "mw" ? "mw.measure" : "hagerup.measure";

    const std::size_t run_one = tracer_.begin("exec.run_one", root.id());
    const exec::BatchResult result = batch_.run_one(c.job);
    tracer_.end(run_one);
    std::vector<double> makespan, wasted, speedup, chunks;
    for (std::size_t r = 0; r < c.job.replicas; ++r) {
      layer(measure_name, run_one, [&](std::size_t id) {
        c.measure_spans.push_back(id);
        const exec::Measured m = backend->measure(replica_config(c.job, r));
        makespan.push_back(m.makespan);
        wasted.push_back(m.avg_wasted_time);
        speedup.push_back(m.speedup);
        chunks.push_back(m.chunks);
        counts.chunks[c.job.backend] += m.chunks;
      });
    }
    layer("stats.summarize", run_one, [&](std::size_t) {
      const stats::Summary summaries[] = {stats::summarize(makespan), stats::summarize(wasted),
                                          stats::summarize(speedup), stats::summarize(chunks)};
      if (summaries[0].mean != result.makespan.mean || summaries[3].mean != result.chunks.mean) {
        throw std::runtime_error("replay of cell " + std::to_string(index) +
                                 " disagrees with BatchRunner::run_one");
      }
    });
    std::string line;
    layer("sweep.render", root.id(),
          [&](std::size_t) { line = renderer_.render(cell, c.job, result); });
    layer("sweep.commit", root.id(), [&](std::size_t) { out_ << line << '\n' << std::flush; });
    if (!out_) throw std::runtime_error("failed writing the replayed records");
    cells.push_back(std::move(c));
  }

  /// Replay what Backend::measure did inside, each layer over the whole
  /// grid so it runs warm from its own previous call: the workload
  /// generation and the technique calls, as children of the measure
  /// span whose work they reproduce.
  void replay_inner_layers() {
    std::vector<double> task_times;
    for (const ReplayedCell& c : cells) {
      for (std::size_t r = 0; r < c.job.replicas; ++r) {
        const mw::Config config = replica_config(c.job, r);
        const std::unique_ptr<workload::RandomSource> rng = make_rng(config);
        const ScopedSpan span(&tracer_, "workload.generate", c.measure_spans[r]);
        for (std::size_t step = 0; step < config.timesteps; ++step) {
          config.workload->generate_into(task_times, config.tasks, *rng);
        }
        counts.tasks += static_cast<double>(config.tasks * config.timesteps);
      }
    }
    for (const ReplayedCell& c : cells) {
      exec::Backend& backend = *backends_.at(c.job.backend);
      for (std::size_t r = 0; r < c.job.replicas; ++r) {
        const mw::Config config = replica_config(c.job, r);
        replay_technique(config, backend.run(config), c.measure_spans[r]);
      }
    }
  }

  std::vector<ReplayedCell> cells;
  ReplayCounts counts;

 private:
  /// Replay the technique calls of one replica: every request of the
  /// replica's chunk log, with the completion feedback the scheduler
  /// got before it, plus each worker's closing request.  Timed as one
  /// span.
  void replay_technique(const mw::Config& config, const exec::BackendRun& run,
                        std::size_t parent) {
    dls::Params params = config.params;
    params.p = config.workers;
    params.n = config.tasks;
    const std::unique_ptr<dls::Technique> technique =
        dls::make_technique(config.technique, params);
    std::vector<std::size_t> last_size(config.workers, 0);
    std::vector<double> last_exec(config.workers, 0.0);
    std::size_t calls = 0;
    {
      const ScopedSpan span(&tracer_, "core.next_chunk", parent);
      const auto request = [&](std::size_t pe, double now) {
        if (last_size[pe] > 0) {
          technique->on_chunk_complete(dls::ChunkFeedback{pe, last_size[pe], last_exec[pe], now});
        }
        last_size[pe] = technique->next_chunk(dls::Request{pe, now});
        ++calls;
      };
      for (const mw::ChunkLogEntry& entry : run.chunk_log) {
        request(entry.pe, entry.issued_at);
        last_exec[entry.pe] = entry.work_seconds;
      }
      for (std::size_t pe = 0; pe < config.workers; ++pe) request(pe, run.makespan);
    }
    counts.technique_calls += static_cast<double>(calls);
  }

  const sweep::Grid& grid_;
  Tracer& tracer_;
  const sweep::RecordRenderer renderer_;
  const exec::BatchRunner batch_{exec::BatchRunner::Options{.threads = 1}};
  std::map<std::string, std::unique_ptr<exec::Backend>> backends_;
  std::ofstream out_;
};

/// The serial pass, each cell replayed layer by layer as soon as the
/// runner commits it.  The runner's time on a cell runs from the end of
/// the previous replay to the cell's commit; the first cell gets the
/// time from the sweep start, plus the tail after the last commit.
/// Returns the serial pass's own sweep time, replays excluded.
double serial_pass_with_replay(const std::string& text, const std::string& out_path,
                               CellReplay& replay) {
  Clock::time_point resumed{};
  double replay_s = 0.0;
  const auto observer = [&](const sweep::SweepRunner::CellEvent& event) {
    const Clock::time_point committed = Clock::now();
    // The first cell's share is filled in below, from the sweep time.
    const double runner_s = replay.cells.empty() ? 0.0 : since(resumed, committed);
    replay.replay(event.cell, runner_s);
    resumed = Clock::now();
    replay_s += since(committed, resumed);
  };
  const PassTimes serial = run_inproc(text, 1, out_path, nullptr, observer);
  if (replay.cells.empty()) throw std::runtime_error("the serial pass committed no cells");
  const double serial_s = serial.sweep_s - replay_s;
  double later_cells_s = 0.0;
  for (std::size_t c = 1; c < replay.cells.size(); ++c) later_cells_s += replay.cells[c].runner_s;
  replay.cells.front().runner_s = serial_s - later_cells_s;
  return serial_s;
}

/// One repetition's signed closure error: the summed durations of its
/// replayed layer calls minus the serial runner's time on the same
/// cells, as a share of the latter.
double closure_error(const std::vector<ReplayedCell>& cells) {
  double runner = 0.0;
  double layers = 0.0;
  for (const ReplayedCell& cell : cells) {
    runner += cell.runner_s;
    layers += cell.layers_s;
  }
  return (layers - runner) / runner;
}

/// Accounting closure: the summed durations of the replayed layer calls
/// (expand, each replica's Backend::measure, summarize, render, commit)
/// against the serial runner's time on the same cells.  These are the
/// layer calls' own wall times, not residuals of a parent span, so what
/// the runner and the batch layer spend around them shows as error.
void closure(const std::vector<ReplayedCell>& cells, std::map<std::string, double>& metrics) {
  double layers = 0.0;
  std::vector<double> cell_errors;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    layers += cells[c].layers_s;
    // The runner expands a window of up to 1024 cells before the
    // window's first record, so that cell does not compare one to one.
    if (c % 1024 == 0 || cells[c].runner_s <= 0.0) continue;
    cell_errors.push_back(std::abs(cells[c].layers_s - cells[c].runner_s) / cells[c].runner_s);
  }
  metrics["trace.layers_s"] = layers;
  metrics["trace.closure_err"] = std::abs(closure_error(cells));
  metrics["trace.closure_cell_p50"] = cell_errors.empty() ? 0.0 : percentile(cell_errors, 0.5);
  metrics["trace.closure_tolerance"] = kClosureTolerance;
}

/// Lease, fetch and merge timings of a traced distributed pass, from
/// the coordinator's event callback.
void dist_metrics(const DistPass& pass, const std::string& workdir, Tracer& tracer,
                  std::size_t parent, std::map<std::string, double>& metrics) {
  std::map<std::pair<std::size_t, std::size_t>, Clock::time_point> leased, fetching;
  std::vector<double> lease_ms, fetch_ms;
  double fetch_bytes = 0.0;
  double fetch_s = 0.0;
  Clock::time_point last_done = pass.times.sweep_start;
  Clock::time_point complete = pass.end;
  double leases = 0.0;
  double reclaims = 0.0;
  for (const TimedEvent& timed : pass.events) {
    const dist::LeaseEvent& e = timed.event;
    const auto key = std::make_pair(e.stripe, e.attempt);
    if (e.kind == "lease") {
      leased[key] = timed.at;
      leases += 1.0;
    } else if (e.kind == "fetch") {
      fetching[key] = timed.at;
    } else if (e.kind == "reclaim") {
      reclaims += 1.0;
    } else if (e.kind == "complete") {
      complete = timed.at;
    } else if (e.kind == "done") {
      last_done = std::max(last_done, timed.at);
      if (const auto it = leased.find(key); it != leased.end()) {
        tracer.add("dist.lease", it->second, timed.at, parent);
        lease_ms.push_back(since(it->second, timed.at) * 1e3);
      }
      if (const auto it = fetching.find(key); it != fetching.end()) {
        tracer.add("net.fetch", it->second, timed.at, parent);
        fetch_ms.push_back(since(it->second, timed.at) * 1e3);
        fetch_s += since(it->second, timed.at);
        struct stat st{};
        const std::string path = dist::stripe_final_path(workdir + "/coordinator", e.stripe);
        if (::stat(path.c_str(), &st) == 0) fetch_bytes += static_cast<double>(st.st_size);
      }
    }
  }
  tracer.add("dist.merge", last_done, complete, parent);
  metrics["dist.leases"] = leases;
  metrics["dist.reclaims"] = reclaims;
  metrics["dist.lease_ms_p50"] = lease_ms.empty() ? 0.0 : percentile(lease_ms, 0.5);
  metrics["dist.lease_ms_p99"] = lease_ms.empty() ? 0.0 : percentile(lease_ms, 0.99);
  metrics["dist.merge_s"] = since(last_done, complete);
  metrics["net.fetch_ms_p50"] = fetch_ms.empty() ? 0.0 : percentile(fetch_ms, 0.5);
  metrics["net.fetch_mb_per_s"] = fetch_s > 0.0 ? fetch_bytes / fetch_s / 1e6 : 0.0;
}

/// Scan, validate and merge of the reference records, and framing of
/// their bytes as FETCH streams them (64 KiB DATA payloads).
void record_path_metrics(const sweep::Grid& grid, const std::string& ref_text, unsigned shards,
                         Tracer& tracer, std::map<std::string, double>& metrics) {
  const std::vector<std::string> lines = split_lines(ref_text);
  std::vector<std::vector<std::string>> shard_lines(std::max(1u, shards));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    shard_lines[i % shard_lines.size()].push_back(lines[i]);
  }
  constexpr std::size_t kPayload = 64 * 1024;
  const std::size_t root = tracer.begin("records");
  for (int rep = 0; rep < kRecordRepeats; ++rep) {
    {
      const ScopedSpan span(&tracer, "sweep.scan", root);
      std::istringstream in(ref_text);
      if (sweep::scan_records(in).lines.size() != lines.size()) {
        throw std::runtime_error("scan_records dropped reference records");
      }
    }
    {
      const ScopedSpan span(&tracer, "sweep.validate", root);
      sweep::validate_records_for_grid(grid, lines);
    }
    {
      const ScopedSpan span(&tracer, "sweep.merge", root);
      if (sweep::merge_records(shard_lines) != lines) {
        throw std::runtime_error("merge_records reordered the reference records");
      }
    }
    {
      const ScopedSpan span(&tracer, "net.frame", root);
      std::string encoded;
      for (std::size_t offset = 0; offset < ref_text.size(); offset += kPayload) {
        encoded += net::encode_frame(std::string_view(ref_text).substr(offset, kPayload));
      }
      net::FrameDecoder decoder;
      std::vector<std::string> payloads;
      for (std::size_t offset = 0; offset < encoded.size(); offset += 16 * 1024) {
        if (!decoder.feed(std::string_view(encoded).substr(offset, 16 * 1024), payloads)) {
          throw std::runtime_error("frame decode failed: " + decoder.error());
        }
      }
      std::string decoded;
      for (const std::string& payload : payloads) decoded += payload;
      if (decoded != ref_text) throw std::runtime_error("framing did not round-trip the records");
    }
  }
  tracer.end(root);
  const auto totals = tracer.totals();
  const double records = static_cast<double>(lines.size()) * kRecordRepeats;
  metrics["sweep.scan_us_per_record"] = totals.at("sweep.scan").seconds / records * 1e6;
  metrics["sweep.validate_us_per_record"] = totals.at("sweep.validate").seconds / records * 1e6;
  metrics["sweep.merge_us_per_record"] = totals.at("sweep.merge").seconds / records * 1e6;
  metrics["net.frame_mb_per_s"] = static_cast<double>(ref_text.size()) * kRecordRepeats /
                                  totals.at("net.frame").seconds / 1e6;
}

int trace_mode(const Args& args) {
  const std::string spec_text = read_file(args.get("spec"));
  const std::string ref_text = read_file(args.get("ref"));
  const unsigned width = args.width();
  const std::string dir = args.get("outdir");
  const bool distributed = args.has("dist");
  Tracer tracer;
  std::map<std::string, double> metrics;
  std::vector<std::string> outputs;
  const auto output = [&](const std::string& name) {
    outputs.push_back(dir + "/" + name + ".jsonl");
    return outputs.back();
  };

  // The workload's own path, untraced and then traced: the difference
  // in sweep time is what tracing costs.  In process, the untraced pass
  // is also the pool probe's full-width pass.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double wmax_s = 0.0;
  metrics["dist.leases"] = metrics["dist.reclaims"] = metrics["dist.merge_s"] = 0.0;
  metrics["dist.lease_ms_p50"] = metrics["dist.lease_ms_p99"] = 0.0;
  metrics["net.fetch_ms_p50"] = metrics["net.fetch_mb_per_s"] = 0.0;
  metrics["retries"] = 0.0;
  if (distributed) {
    untraced_s =
        run_dist(args, width, output("untraced"), dir + "/wd-untraced", nullptr).times.sweep_s;
    const DistPass traced = run_dist(args, width, output("traced"), dir + "/wd-traced", &tracer);
    traced_s = traced.times.sweep_s;
    const std::size_t run = tracer.add("sweep.run", traced.times.sweep_start, traced.end);
    dist_metrics(traced, dir + "/wd-traced", tracer, run, metrics);
    metrics["retries"] = static_cast<double>(traced.report.retries);
    wmax_s = run_inproc(spec_text, width, output("wmax"), nullptr).sweep_s;
  } else {
    untraced_s = run_inproc(spec_text, width, output("untraced"), nullptr).sweep_s;
    traced_s = run_inproc(spec_text, width, output("traced"), &tracer).sweep_s;
    wmax_s = untraced_s;
  }
  metrics["sweep.untraced_s"] = untraced_s;
  metrics["sweep.traced_s"] = traced_s;
  metrics["trace.overhead_s"] = traced_s - untraced_s;

  // Pool scaling probe, in process: full width (above), two threads and
  // serial.  The serial pass replays each cell's layers as it goes.
  const unsigned w2 = std::min(2u, width);
  const double w2_s = run_inproc(spec_text, w2, output("w2"), nullptr).sweep_s;
  const sweep::Grid grid = sweep::parse_grid(spec_text);
  CellReplay replay(grid, tracer, output("replay"));
  const double serial_s = serial_pass_with_replay(spec_text, output("serial"), replay);
  metrics["pool.serial_s"] = serial_s;
  metrics["pool.w2_s"] = w2_s;
  metrics["pool.wmax_s"] = wmax_s;
  metrics["pool.eff.w2"] = serial_s / (w2 * w2_s);
  metrics["pool.eff.wmax"] = serial_s / (width * wmax_s);

  // The closure's later repetitions: their spans are dropped, their
  // records checked like the rest.
  std::vector<std::vector<ReplayedCell>> repeats{replay.cells};
  for (int r = 1; r < kClosureRepeats; ++r) {
    Tracer dropped;
    CellReplay again(grid, dropped, output("replay" + std::to_string(r)));
    (void)serial_pass_with_replay(spec_text, output("serial" + std::to_string(r)), again);
    repeats.push_back(std::move(again.cells));
  }
  for (std::size_t r = 0; r < repeats.size(); ++r) {
    metrics["trace.closure_err.r" + std::to_string(r)] = std::abs(closure_error(repeats[r]));
  }
  std::sort(repeats.begin(), repeats.end(), [](const auto& a, const auto& b) {
    return closure_error(a) < closure_error(b);
  });
  closure(repeats[repeats.size() / 2], metrics);

  replay.replay_inner_layers();
  record_path_metrics(grid, ref_text, std::max(1u, width - 1), tracer, metrics);

  const auto totals = tracer.totals();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  const ReplayCounts& counts = replay.counts;
  const double cells = static_cast<double>(replay.cells.size());
  metrics["workload.tasks"] = counts.tasks;
  metrics["workload.generate_ns_per_task"] = total("workload.generate").seconds / counts.tasks * 1e9;
  metrics["core.next_chunk_ns"] = total("core.next_chunk").seconds / counts.technique_calls * 1e9;
  for (const char* backend : {"mw", "hagerup"}) {
    const Tracer::Totals measure = total((std::string(backend) + ".measure").c_str());
    const auto chunks = counts.chunks.find(backend);
    metrics[std::string(backend) + ".replica_ms"] =
        measure.count == 0 ? 0.0 : measure.seconds / static_cast<double>(measure.count) * 1e3;
    metrics[std::string(backend) + ".self_ns_per_chunk"] =
        chunks == counts.chunks.end() ? 0.0 : measure.self_seconds / chunks->second * 1e9;
  }
  // run_one's children are the measure calls and the summary it repeats,
  // so its self time is what the batch layer adds around them.
  const Tracer::Totals run_one = total("exec.run_one");
  metrics["exec.batch_overhead_frac"] = run_one.self_seconds / run_one.seconds;
  metrics["stats.summarize_us_per_cell"] = total("stats.summarize").seconds / cells * 1e6;
  metrics["sweep.expand_us_per_cell"] = total("sweep.expand").seconds / cells * 1e6;
  metrics["sweep.render_us_per_record"] = total("sweep.render").seconds / cells * 1e6;
  metrics["sweep.commit_us_per_record"] = total("sweep.commit").seconds / cells * 1e6;
  metrics["trace.spans"] = static_cast<double>(tracer.spans().size());

  tracer.write_chrome_json(args.get("trace-out"));
  print_json(metrics, outputs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A dead worker link must be an error return, not a SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    const Args args(argc, argv);
    if (mode == "time") return time_mode(args);
    if (mode == "trace") return trace_mode(args);
    std::cerr << "usage: perfbench_pass time|trace --spec <file> --width <n> ...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_pass: " << e.what() << "\n";
    return 1;
  }
}
