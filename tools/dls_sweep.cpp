// dls_sweep: sharded, resumable experiment-grid service.
//
// Expands `sweep <key> <v1> <v2> ...` directives in an experiment file
// (see sweep/experiment.hpp and sweep/grid.hpp) into the cartesian
// product of batched experiments, runs each cell through
// exec::BatchRunner on the cell's execution backend, and streams one
// JSONL record per completed (cell, backend).
//
//   dls_sweep grid.sweep --out results.jsonl             # run a grid
//   dls_sweep grid.sweep --out results.jsonl --resume    # continue a killed sweep
//   dls_sweep grid.sweep --out s0.jsonl --shard 0/3      # machine 0 of 3
//   dls_sweep merge --out all.jsonl s0.jsonl s1.jsonl s2.jsonl
//   dls_sweep grid.sweep --list                          # show the cells, don't run
//   dls_sweep grid.sweep --out r.jsonl --backend hagerup  # the grid's execution backend
//   dls_sweep report original.jsonl simulation.jsonl   # a figure's tables from its sweep pairs
//   dls_sweep report f9.jsonl                          # Figure 9 view of `series true` records
//   dls_sweep coordinate grid.sweep --out all.jsonl --workdir wd --workers 4
//   dls_sweep serve grid.sweep --listen :7070 --out all.jsonl --workdir wd
//   dls_sweep work --connect host:7070   # one remote worker of `serve`
//
// `coordinate` runs the grid fault-tolerantly across worker processes
// (dist/coordinator.hpp): it spawns each as `work` on a socketpair,
// speaking the framed protocol remote `serve` workers speak over TCP.
// Stripes of the grid are leased to workers, dead or hung workers are
// detected by heartbeat deadline and their leases reclaimed (resuming
// past every record the dead worker sent), retries back off
// exponentially, and the merged output is bitwise identical to a
// serial run of the same spec -- even with --chaos fault injection
// killing workers at seeded points.
//
// A grid runs on one execution backend (its `backend` key, or
// --backend); `sweep backend ...` is an error.  To compare vehicles, run
// the spec once per backend and merge the outputs: every backend runs
// a cell on the same derived seed, and `merge` interleaves the records
// cell by cell.
//
// Every cell gets a decorrelated base seed (sweep::derive_cell_seed,
// splitmix64 over the cell index), so cells sharing the spec's base
// seed do not replay the same replica seed sequence.  Records are
// deterministic for a given spec: resuming, sharding, and merging all
// produce byte-identical records, so `merge` output is independent of
// how the grid was split.
//
// Exit codes: 0 = success, 1 = a simulation/run error, 2 = a parse or
// usage error (parse errors name the offending line).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "exec/backend.hpp"
#include "net/socket.hpp"
#include "support/flags.hpp"
#include "sweep/record.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard_io.hpp"
#include "sweep/stripe.hpp"

namespace {

constexpr int kExitRunError = 1;
constexpr int kExitUsageError = 2;

void print_usage(std::ostream& out, const support::Flags& flags) {
  out << "usage: dls_sweep <spec-file | -> [options]        run a grid\n"
         "       dls_sweep merge --out <file> <shard>...    merge shard outputs\n"
         "       dls_sweep report (<original.jsonl> <simulation.jsonl>)... [--csv]\n"
         "       dls_sweep report <series.jsonl>             Figure 9 view of series records\n"
         "       dls_sweep coordinate <spec-file> --out <file> --workdir <dir> [options]\n"
         "       dls_sweep serve <spec-file> --listen host:port --out <file> --workdir <dir>\n"
         "       dls_sweep work --connect host:port   one remote worker (TCP)\n"
         "\n"
         "Expands 'sweep <key> <v1> <v2> ...' lines of an experiment file into\n"
         "a cartesian grid of batched runs; one JSONL record per cell.\n"
         "With --resume, cells already in --out are skipped (a truncated final\n"
         "line from a mid-write kill is dropped and recomputed).\n"
         "\n"
      << flags.usage();
}

std::string read_input(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) throw std::invalid_argument("cannot open " + path);
    buffer << in.rdbuf();
  }
  return buffer.str();
}

/// A count or duration flag: a non-negative integer that fits `T`.
template <class T>
T get_count(const support::Flags& flags, std::string_view name) {
  const std::int64_t value = flags.get_int(name);
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (value < 0 || static_cast<std::uint64_t>(value) > kMax) {
    throw std::invalid_argument("flag --" + std::string(name) + " must be a count from 0 to " +
                                std::to_string(kMax) + ": " + std::to_string(value));
  }
  return static_cast<T>(value);
}

std::chrono::milliseconds get_ms(const support::Flags& flags, std::string_view name) {
  return std::chrono::milliseconds(get_count<std::int64_t>(flags, name));
}

void parse_shard(const std::string& text, sweep::SweepRunner::Options& options) {
  // Each number spans its whole token: "0/4x", "1/2/3" and "0/-2" are
  // errors, not 0/4, 1/2 and a wrapped count.
  const auto number = [&](std::size_t begin, std::size_t end) {
    std::size_t value = 0;
    const auto [ptr, ec] = std::from_chars(text.data() + begin, text.data() + end, value);
    if (begin == end || ec != std::errc{} || ptr != text.data() + end) {
      throw std::invalid_argument("--shard must be <index>/<count>, e.g. 0/4; got: " + text);
    }
    return value;
  };
  const std::size_t slash = std::min(text.find('/'), text.size());
  options.shard_index = number(0, slash);
  options.shard_count = number(std::min(slash + 1, text.size()), text.size());
  if (options.shard_count == 0 || options.shard_index >= options.shard_count) {
    throw std::invalid_argument("--shard index out of range: " + text);
  }
}

int run_mode(const support::Flags& flags) {
  sweep::Grid grid;
  try {
    std::string text = read_input(flags.positional()[0]);
    if (const std::string backend = flags.get("backend"); !backend.empty()) {
      // Appended last, so it overrides a `backend` key in the spec.
      text += "\nbackend " + backend + "\n";
    }
    grid = sweep::parse_grid(text);
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitUsageError;
  }

  sweep::SweepRunner::Options options;
  try {
    options.threads = get_count<unsigned>(flags, "threads");
    options.max_cells = get_count<std::size_t>(flags, "max-cells");
    parse_shard(flags.get("shard"), options);
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitUsageError;
  }

  if (flags.get_bool("list")) {
    // Same striped walk the runner owns its cells by, so
    // `--list --shard i/m` previews exactly what that shard will run.
    sweep::for_each_owned_index(
        grid, options.shard_index, options.shard_count, [&](std::size_t i) {
          const sweep::Cell c = sweep::cell(grid, i);
          const exec::BatchJob job = sweep::batch_job(grid, c);
          std::cout << "cell " << c.index;
          for (const auto& [key, value] : c.assignment) std::cout << " " << key << "=" << value;
          std::cout << " backend=" << job.backend;
          std::cout << " seed=" << job.config.seed << " replicas=" << job.replicas << "\n";
          return true;
        });
    return EXIT_SUCCESS;
  }

  const std::string out_path = flags.get("out");
  const bool resume = flags.get_bool("resume");
  const bool quiet = flags.get_bool("quiet");
  if (resume && out_path.empty()) {
    std::cerr << "dls_sweep: --resume needs --out (stdout cannot be rescanned)\n";
    return kExitUsageError;
  }

  sweep::RecordFile record_file;
  if (!out_path.empty()) {
    if (std::ifstream existing(out_path);
        !resume && existing && existing.peek() != std::ifstream::traits_type::eof() &&
        !flags.get_bool("overwrite")) {
      std::cerr << "dls_sweep: " << out_path
                << " exists; pass --resume to continue it or --overwrite to discard it\n";
      return kExitUsageError;
    }
    // Records of a different spec are refused (a wrong --out would
    // otherwise silently keep stale records and skip their cells); the
    // survivors are rewritten in one atomic, durable step, so "a kill
    // loses at most the cell in flight" holds for the rewrite too.
    try {
      record_file = sweep::open_record_file(grid, out_path, resume);
    } catch (const std::invalid_argument& e) {
      std::cerr << "dls_sweep: " << out_path << ": " << e.what()
                << " (use --overwrite to discard the file)\n";
      return kExitUsageError;
    } catch (const std::exception& e) {
      std::cerr << "dls_sweep: " << out_path << ": " << e.what() << "\n";
      return kExitRunError;
    }
    if (record_file.kept.dropped_partial_tail && !quiet) {
      std::cerr << "dls_sweep: dropped a truncated final record (mid-write kill); "
                   "its cell will be recomputed\n";
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : record_file.writer->stream();

  std::size_t observed_computed = 0;
  std::size_t observed_skipped = 0;
  std::size_t owned_total = 0;  // filled once the runner exists
  const auto observer = [&](const sweep::SweepRunner::CellEvent& event) {
    (event.skipped ? observed_skipped : observed_computed) += 1;
    if (quiet) return;
    // One stderr line per owned cell: the cell, then this shard's
    // progress.
    std::cerr << "dls_sweep: cell " << event.cell << " [" << event.backend << "] of "
              << event.cells_total << (event.skipped ? " already done" : " done") << "; shard "
              << options.shard_index << "/" << options.shard_count << ": "
              << (observed_computed + observed_skipped) << "/" << owned_total << " cells ("
              << observed_computed << " computed, " << observed_skipped << " skipped)\n";
  };

  try {
    const sweep::SweepRunner runner(options);
    owned_total = runner.owned_cells(grid);
    const std::size_t computed = runner.run(grid, record_file.kept.done, out, observer);
    // The runner's committer checks the stream per record, but the last
    // records may still sit in the ostream buffer -- a full disk or a
    // yanked volume must not exit 0 with a silently short output.
    out.flush();
    if (!out) {
      std::cerr << "dls_sweep: " << (out_path.empty() ? "<stdout>" : out_path)
                << ": flushing the sweep output failed (disk full?)\n";
      return kExitRunError;
    }
    if (!quiet) {
      std::cerr << "dls_sweep: computed " << computed << " cell(s), skipped "
                << record_file.kept.done.size() << " of " << grid.cells() << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitRunError;
  }
  return EXIT_SUCCESS;
}

int merge_mode(const support::Flags& flags) {
  const std::vector<std::string>& positional = flags.positional();
  if (positional.size() < 2) {
    std::cerr << "dls_sweep: merge needs at least one shard file\n";
    return kExitUsageError;
  }
  // Bad inputs (unreadable shards, malformed or conflicting records)
  // are usage errors; a failing *write* of the merged output is a run
  // error -- the exit-code contract CI wrappers rely on.
  std::vector<std::vector<std::string>> shards;
  std::vector<std::string> merged;
  try {
    for (std::size_t i = 1; i < positional.size(); ++i) {
      std::ifstream in(positional[i]);
      if (!in) throw std::invalid_argument("cannot open " + positional[i]);
      const sweep::ScanResult scanned = sweep::scan_records(in);
      if (scanned.dropped_partial_tail) {
        std::cerr << "dls_sweep: warning: " << positional[i]
                  << " ends in a truncated record (killed shard?); that cell is missing "
                     "until the shard is resumed\n";
      }
      shards.push_back(scanned.lines);
    }
    merged = sweep::merge_records(shards);
    if (!merged.empty()) {
      // Every record carries its grid size.  An incomplete
      // merge is legitimate (shards still running) but must not look
      // complete: warn per observed backend (a backend whose slice is
      // missing ENTIRELY leaves no record at all, so only the grid
      // spec itself -- i.e. a --resume run -- can detect that).
      const auto grid_size = sweep::record_grid_size(merged.front());
      std::map<std::string, std::size_t> per_backend;
      for (const std::string& line : merged) {
        if (const auto backend = sweep::record_backend(line)) ++per_backend[*backend];
      }
      if (grid_size) {
        for (const auto& [backend, count] : per_backend) {
          if (count < *grid_size) {
            std::cerr << "dls_sweep: warning: backend " << backend << " has " << count
                      << " of " << *grid_size
                      << " cells; the grid is incomplete (a fully absent backend is not "
                         "detectable here -- verify with --resume against the spec)\n";
          }
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitUsageError;
  }

  const std::string out_path = flags.get("out");
  try {
    if (out_path.empty()) {
      for (const std::string& line : merged) std::cout << line << '\n';
      std::cout.flush();
      if (!std::cout) throw std::runtime_error("writing the merged output to stdout failed");
    } else {
      // Atomic, durable publish (temp + fsync + rename): a crash
      // mid-write must not leave a torn file that looks merged.
      sweep::write_lines_atomic(out_path, merged);
    }
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitRunError;
  }
  std::cerr << "dls_sweep: merged " << merged.size() << " record(s) from " << shards.size()
            << " shard(s)\n";
  return EXIT_SUCCESS;
}

// `dls_sweep report`: the reducer of a figure's sweep pairs, or, over
// one file, the Figure 9 view of its series records (see
// sweep/report.hpp).  Unreadable, incomplete or mismatched record
// files are usage errors, like the other modes' input errors.
int report_mode(const support::Flags& flags) {
  const std::vector<std::string>& positional = flags.positional();
  constexpr const char* kUsage =
      "report needs <original.jsonl> <simulation.jsonl> pairs, or one record file with series";
  if (positional.size() < 2 || (positional.size() > 2 && positional.size() % 2 == 0)) {
    std::cerr << "dls_sweep: " << kUsage << "\n";
    return kExitUsageError;
  }
  std::string text;
  try {
    std::vector<std::vector<std::string>> sides;
    for (std::size_t i = 1; i < positional.size(); ++i) {
      std::ifstream in(positional[i]);
      if (!in) throw std::invalid_argument("cannot open " + positional[i]);
      sweep::ScanResult scanned = sweep::scan_records(in);
      if (scanned.dropped_partial_tail) {
        throw std::invalid_argument(positional[i] +
                                    " ends in a truncated record; resume that sweep first");
      }
      sides.push_back(std::move(scanned.lines));
    }
    text = sides.size() == 1
               ? sweep::render_series_report(sides.front())
               : sweep::render_figure_report(sweep::reduce_figure(sides), flags.get_bool("csv"));
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: report: " << e.what();
    // One file may be a half-typed pair: say what report reads.
    if (positional.size() == 2) std::cerr << " (" << kUsage << ")";
    std::cerr << "\n";
    return kExitUsageError;
  }
  std::cout << text;
  std::cout.flush();
  return std::cout ? EXIT_SUCCESS : kExitRunError;
}

// `dls_sweep coordinate` / `dls_sweep serve`: the fault-tolerant
// multi-worker front ends (dist/coordinator.hpp).  One flag set --
// coordinate spawns its workers on socketpairs, serve listens for
// remote ones (`dls_sweep work --connect`).
int coordinate_mode(int argc, char** argv, bool serve) {
  support::Flags flags;
  flags.define("out", "", "merged output file (required; written atomically at the end)");
  flags.define("workdir", "", "record journal + events log (required; created if missing)");
  if (serve) {
    flags.define("listen", "", "host:port to accept workers on (required; port 0 = kernel pick)");
    flags.define("token", "", "HELLO auth token workers must present (empty = accept any)");
    flags.define("accept-grace-ms", "30000",
                 "fail when no live worker has been connected for this long");
    flags.define("port-file", "", "write the bound port here once listening (for scripts)");
  }
  flags.define("workers", "2",
               serve ? "expected worker count (sizes the default stripe count only)"
                     : "worker processes to spawn");
  flags.define("stripes", "0", "lease granularity (0 = min(4*workers, cells))");
  flags.define("threads", "0", "SweepRunner width per worker (0 = spec / hardware)");
  flags.define("heartbeat-ms", "200", "worker heartbeat interval");
  flags.define("deadline-ms", "2000",
               "a worker silent past this is killed and its lease reclaimed");
  flags.define("max-attempts", "5", "lease attempts per stripe, per coordinator run, before the run fails");
  flags.define("backoff-ms", "250", "retry backoff base (doubles per attempt)");
  flags.define("backoff-cap-ms", "5000", "retry backoff cap");
  flags.define("chaos", "",
               "fault injection: <worker>:<after_cells>[:<mode>],..., at most one per worker "
               "(mode: kill|hang)");
  flags.define("chaos-seed", "0", "derive --chaos-kills directives from this seed");
  flags.define("chaos-kills", "0", "number of seeded workers to fault (with --chaos-seed)");
  flags.define("backend", "", "execution backend (appended to the spec workers get)");
  flags.define("quiet", "false", "suppress lease-event narration on stderr");

  const std::string mode = serve ? "serve" : "coordinate";
  dist::CoordinatorOptions options;
  bool quiet = false;
  std::string port_file;
  try {
    flags.parse(argc, argv);
    // positional()[0] is the mode word "coordinate"/"serve".
    if (flags.positional().size() != 2) {
      throw std::invalid_argument(mode + " needs exactly one spec file");
    }
    options.spec_path = flags.positional()[1];
    options.out_path = flags.get("out");
    options.workdir = flags.get("workdir");
    options.backend = flags.get("backend");
    if (options.out_path.empty() || options.workdir.empty()) {
      throw std::invalid_argument(mode + " needs --out and --workdir");
    }
    if (serve) {
      options.listen = flags.get("listen");
      if (options.listen.empty()) throw std::invalid_argument("serve needs --listen host:port");
      (void)net::parse_host_port(options.listen);  // fail early on a bad address
      options.token = flags.get("token");
      options.accept_grace = get_ms(flags, "accept-grace-ms");
      port_file = flags.get("port-file");
    }
    options.workers = get_count<std::size_t>(flags, "workers");
    if (options.workers == 0) throw std::invalid_argument("--workers must be >= 1");
    options.stripes = get_count<std::size_t>(flags, "stripes");
    options.worker_threads = get_count<unsigned>(flags, "threads");
    options.heartbeat_interval = get_ms(flags, "heartbeat-ms");
    options.lease_deadline = get_ms(flags, "deadline-ms");
    if (options.heartbeat_interval.count() == 0) {
      throw std::invalid_argument("--heartbeat-ms must be >= 1");
    }
    if (options.lease_deadline <= options.heartbeat_interval) {
      // A healthy worker is silent for up to one heartbeat interval.
      throw std::invalid_argument(
          "--deadline-ms " + std::to_string(options.lease_deadline.count()) +
          " must exceed --heartbeat-ms " + std::to_string(options.heartbeat_interval.count()) +
          ", or healthy workers are killed between heartbeats");
    }
    options.max_attempts = get_count<std::size_t>(flags, "max-attempts");
    if (options.max_attempts == 0) throw std::invalid_argument("--max-attempts must be >= 1");
    options.backoff_base = get_ms(flags, "backoff-ms");
    options.backoff_cap = get_ms(flags, "backoff-cap-ms");
    const std::string chaos_list = flags.get("chaos");
    const auto chaos_kills = get_count<std::size_t>(flags, "chaos-kills");
    if (serve && (!chaos_list.empty() || chaos_kills > 0)) {
      // Serve mode never spawns, so directives keyed by worker index
      // would silently do nothing; chaos rides the workers' own
      // --chaos-after / --chaos-mode flags instead.
      throw std::invalid_argument("serve: chaos is worker-side; start a worker with "
                                  "--chaos-after/--chaos-mode instead");
    }
    if (!chaos_list.empty() && chaos_kills > 0) {
      throw std::invalid_argument("--chaos and --chaos-kills are mutually exclusive");
    }
    if (!chaos_list.empty()) {
      options.chaos = dist::parse_chaos_list(chaos_list);
      std::set<std::size_t> victims;
      for (const dist::ChaosKill& kill : options.chaos) {
        const std::string directive = std::to_string(kill.worker) + ":" +
                                      std::to_string(kill.after_cells) + ":" +
                                      std::string(dist::chaos_mode_name(kill.mode));
        if (kill.worker >= options.workers) {
          throw std::invalid_argument("--chaos " + directive + ": no worker " +
                                      std::to_string(kill.worker) + " among --workers " +
                                      std::to_string(options.workers));
        }
        if (!victims.insert(kill.worker).second) {
          throw std::invalid_argument("--chaos " + directive + ": a second directive for worker " +
                                      std::to_string(kill.worker));
        }
      }
    } else if (chaos_kills > 0) {
      // Seeded points early in each victim's life (within its first 3
      // computed cells) -- early faults exercise reclamation hardest.
      options.chaos = dist::derive_chaos(static_cast<std::uint64_t>(flags.get_int("chaos-seed")),
                                         chaos_kills, options.workers, 3);
    }
    quiet = flags.get_bool("quiet");
    // Load the spec here too, so a bad spec -- or one too large to
    // ship -- is a usage error (exit 2, naming the offending line or
    // the size) like run mode, not a run error after worker-spawning.
    (void)dist::load_shipped_grid(options.spec_path, options.backend);
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitUsageError;
  }

  if (!quiet) {
    options.on_event = [](const dist::LeaseEvent& event) {
      std::cerr << "dls_sweep: [" << event.seq << "] " << event.kind;
      if (event.worker != dist::LeaseEvent::npos) std::cerr << " worker=" << event.worker;
      if (event.stripe != dist::LeaseEvent::npos) std::cerr << " stripe=" << event.stripe;
      if (event.attempt != dist::LeaseEvent::npos) std::cerr << " attempt=" << event.attempt;
      if (event.backoff_ms >= 0) std::cerr << " backoff_ms=" << event.backoff_ms;
      if (!event.detail.empty()) std::cerr << " (" << event.detail << ")";
      std::cerr << "\n";
    };
  }

  if (serve) {
    options.on_listening = [&quiet, port_file](std::uint16_t port) {
      if (!quiet) std::cerr << "dls_sweep: serving on port " << port << "\n";
      if (port_file.empty()) return;
      // Port 0 runs resolve their real port only now; scripts (CI,
      // the two-terminal example) read it from here.  Temp + rename so
      // a reader never sees a half-written number.
      const std::string tmp = port_file + ".tmp";
      std::ofstream out(tmp, std::ios::trunc);
      out << port << "\n";
      out.flush();
      if (!out || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
        std::cerr << "dls_sweep: cannot write port file " << port_file << "\n";
      }
    };
  }

  try {
    dist::Coordinator coordinator(options);
    const dist::CoordinatorReport report = coordinator.run();
    if (!quiet) {
      std::cerr << "dls_sweep: " << (serve ? "served " : "coordinated ") << report.stripes
                << " stripe(s): " << report.computed
                << " cell(s) computed, " << report.merged_records << " record(s) merged, "
                << report.reclaims << " reclaim(s), " << report.retries << " retry(ies), "
                << report.adopted << " adoption(s), " << report.workers_lost
                << " worker(s) lost\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitRunError;
  }
  return EXIT_SUCCESS;
}

// `dls_sweep work`: one worker serving the lease protocol -- on the
// stdin socketpair `coordinate` spawns it on, or over TCP against a
// `serve` coordinator (`--connect host:port`).  Either way the spec
// arrives over the wire.
int work_mode(int argc, char** argv) {
  support::Flags flags;
  // Accepted and ignored: perfbench/src/pass.cpp still passes it.
  flags.define("dir", "", "ignored (workers write no files)");
  flags.define("threads", "1", "SweepRunner width per lease (0 = spec / hardware)");
  flags.define("heartbeat-ms", "200", "heartbeat interval");
  flags.define("chaos-after", "0", "fault injection: misbehave after N computed cells (0 = off)");
  flags.define("chaos-mode", "kill", "fault mode: kill | hang");
  flags.define("connect", "",
               "host:port of a `dls_sweep serve` coordinator (empty = stdin, a socket)");
  flags.define("token", "", "HELLO auth token (must match the coordinator's --token)");
  flags.define("idle-ms", "10000", "exit when the coordinator sends nothing for this long");
  flags.define("connect-attempts", "40", "connection attempts before giving up");
  flags.define("connect-backoff-ms", "250", "delay between connection attempts");

  dist::WorkerOptions options;
  try {
    flags.parse(argc, argv);
    // The spec arrives over the wire (SPEC after HELLO): a spec file
    // here would be ignored, so treat one as a usage error.
    if (flags.positional().size() != 1) {
      throw std::invalid_argument("work takes no spec file (it ships over the wire)");
    }
    options.connect = flags.get("connect");
    if (!options.connect.empty()) {
      (void)net::parse_host_port(options.connect);  // fail early on a bad address
    }
    options.threads = get_count<unsigned>(flags, "threads");
    options.heartbeat_interval = get_ms(flags, "heartbeat-ms");
    if (options.heartbeat_interval.count() == 0) {
      throw std::invalid_argument("--heartbeat-ms must be >= 1");
    }
    options.token = flags.get("token");
    options.idle_timeout = get_ms(flags, "idle-ms");
    options.connect_attempts = get_count<std::size_t>(flags, "connect-attempts");
    options.connect_backoff = get_ms(flags, "connect-backoff-ms");
    if (const auto after = get_count<std::size_t>(flags, "chaos-after"); after > 0) {
      options.chaos =
          dist::ChaosKill{0, after, dist::parse_chaos_mode(flags.get("chaos-mode"))};
    }
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitUsageError;
  }
  return dist::run_worker(options);
}

}  // namespace

int main(int argc, char** argv) {
  // coordinate/serve/work carry their own flag sets; dispatch before
  // the run-mode flags can reject them.
  if (argc > 1 && std::strcmp(argv[1], "coordinate") == 0) {
    return coordinate_mode(argc, argv, /*serve=*/false);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return coordinate_mode(argc, argv, /*serve=*/true);
  }
  if (argc > 1 && std::strcmp(argv[1], "work") == 0) return work_mode(argc, argv);
  support::Flags flags;
  flags.define("out", "", "output file (JSONL for run/merge; empty = stdout)");
  flags.define("resume", "false", "skip cells already present in --out");
  flags.define("overwrite", "false", "discard an existing --out instead of refusing");
  flags.define("shard", "0/1", "own the cells with index mod count == index (e.g. 1/4)");
  flags.define("threads", "0",
               "width of the persistent pool the whole sweep (all cells x replicas) is "
               "claimed from (0 = spec / hardware); output is byte-identical at any width");
  flags.define("max-cells", "0", "stop after computing N new cells (0 = no limit)");
  flags.define("list", "false", "print the expanded cells (of this --shard) and exit");
  flags.define("quiet", "false", "suppress per-cell progress on stderr");
  std::string backends;
  for (const std::string& name : exec::backend_names()) {
    backends += (backends.empty() ? "" : " | ") + name;
  }
  flags.define("backend", "",
               "execution backend (" + backends + "); overrides the spec's 'backend' key");
  flags.define("csv", "false", "[report] emit the tables as CSV");

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage(std::cout, flags);
      return EXIT_SUCCESS;
    }
  }
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep: " << e.what() << "\n";
    return kExitUsageError;
  }
  if (flags.positional().empty()) {
    print_usage(std::cerr, flags);
    return kExitUsageError;
  }
  if (flags.positional()[0] == "merge") return merge_mode(flags);
  if (flags.positional()[0] == "report") return report_mode(flags);
  if (flags.positional().size() != 1) {
    std::cerr << "dls_sweep: expected exactly one spec file\n";
    return kExitUsageError;
  }
  return run_mode(flags);
}
