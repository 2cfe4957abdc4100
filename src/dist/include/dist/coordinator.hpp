#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "sweep/grid.hpp"

namespace dist {

/// The coordinator of a distributed sweep (`dls_sweep coordinate` /
/// `dls_sweep serve`).
///
/// Two worker sources behind one supervision loop and one wire
/// (dist/protocol.hpp over net::Transport): `coordinate` fork/execs
/// its own workers, each on the child end of an AF_UNIX socketpair as
/// stdin; `serve` (`listen` set) opens a TCP listener and adopts
/// remote workers as they connect.  Workers share no disk with the
/// coordinator, spawned ones included.  Every worker must HELLO
/// (version + token) before anything else and gets the grid as SPEC.
/// The coordinator leases stripes of the grid and supervises:
///
///  - liveness: any worker message resets its deadline clock; a worker
///    silent past `lease_deadline` is terminated (hung up on, and
///    SIGKILLed too if spawned) and its lease reclaimed.  The
///    coordinator also PINGs every idle worker each heartbeat interval
///    -- a half-open TCP link never EOFs, so liveness must be probed
///    in both directions (workers give up after an idle timeout; the
///    coordinator reclaims by deadline).  A leased worker is not
///    pinged: it does not read its link until the lease ends, and its
///    heartbeats already prove it alive.
///  - the data path: the holder streams each record as RECORD the
///    moment it commits it.  The coordinator accepts the stripe's
///    owned cells in canonical order only, checks each record against
///    the grid, and appends it to one append-only journal,
///    `<workdir>/records.jsonl` (sweep::ShardWriter, one write(2) per
///    record).  DONE must match the stream (record count, FNV-1a 64
///    digest, every owned cell held); any mismatch is a protocol
///    death.  The stripe is done only once the journal is fsynced.
///  - reclamation: one resume path serves every reclaim -- a spawned or
///    remote worker's death, a FAIL, or a coordinator restart.  The
///    journal keeps every record received; the retry lease says how
///    many of the stripe's owned cells, from the first in canonical
///    order, are held, and the new worker computes only the rest.  A
///    restart opens the journal with sweep::open_record_file, the
///    resume path of `dls_sweep --out/--resume`, derives each stripe's
///    held count from it -- under whatever `stripes` the new run uses
///    -- and adopts the stripes it holds in full.  Under other stripes
///    a journaled cell past a stripe's held prefix is computed again;
///    the journal keeps the cell's first record.
///  - retry: reclaimed stripes go back to the pending pool gated by
///    capped exponential backoff (protocol.hpp backoff_delay) and are
///    re-leased to surviving workers, up to `max_attempts` per stripe
///    in this coordinator run -- exhaustion fails the whole run loudly.
///  - merge: once every stripe is done, the journal is scanned,
///    checked against the grid, merged (sweep::merge_records) and
///    checked to cover the grid, so the merged output of a sweep that
///    lost k of n workers is bitwise identical to an uninterrupted
///    serial run.
///
/// Every decision is appended to a lease-event log,
/// `<workdir>/events.jsonl` (JSONL of protocol.hpp LeaseEvents), that
/// check::check_lease_exclusivity (and the transport invariant in
/// check/net.hpp) can replay.  The journal and the log are the only
/// files in the workdir.
struct CoordinatorOptions {
  std::string spec_path;  ///< grid spec file, shipped to workers as SPEC
  std::string out_path;   ///< merged output (written atomically at the end)
  std::string workdir;    ///< record journal + events log
  std::string backend;    ///< backend override appended to the spec ("" = none)
  std::size_t workers = 2;
  std::size_t stripes = 0;  ///< lease granularity; 0 = min(4 * workers, cells)
  unsigned worker_threads = 0;  ///< forwarded SweepRunner width (0 = spec)
  std::chrono::milliseconds heartbeat_interval{200};
  std::chrono::milliseconds lease_deadline{2000};
  std::size_t max_attempts = 5;  ///< lease attempts per stripe (this run) before giving up
  std::chrono::milliseconds backoff_base{250};
  std::chrono::milliseconds backoff_cap{5000};
  std::vector<ChaosKill> chaos;  ///< fault-injection directives, by worker index
  /// Command to exec for each worker, e.g. {"./dls_sweep"}; the
  /// coordinator appends `work ...`.  Empty =
  /// /proc/self/exe (the coordinator binary itself).
  std::vector<std::string> worker_command;
  /// Observer invoked for every logged lease event (stderr narration).
  std::function<void(const LeaseEvent&)> on_event;

  /// Serve mode: "host:port" to listen on (port 0 = kernel-assigned).
  /// Empty = classic mode (spawn local socketpair workers).  In serve mode
  /// `workers` only sizes the default stripe count; the actual worker
  /// set is whoever connects and HELLOs.
  std::string listen;
  std::string token;  ///< required HELLO token ("" = accept any)
  /// Serve mode failure horizon: abort when no live worker has been
  /// connected for this long (replacing classic mode's instant
  /// every-worker-died failure -- remote workers come and go).
  std::chrono::milliseconds accept_grace{30000};
  /// Called with the bound port once the listener is up -- how tests
  /// (and --port-file) learn a port-0 listener's address.
  std::function<void(std::uint16_t)> on_listening;
};

struct CoordinatorReport {
  std::size_t stripes = 0;
  /// Records received from workers, every attempt counted: a cell
  /// computed (a retry never recomputes a record already received).
  std::size_t computed = 0;
  std::size_t adopted = 0;         ///< stripes held in full by the journal at startup
  std::size_t reclaims = 0;        ///< leases taken back from dead/failed workers
  std::size_t retries = 0;         ///< retry leases granted
  std::size_t workers_lost = 0;    ///< worker processes/links that died or were killed
  std::size_t merged_records = 0;  ///< records in the final merged output
};

/// A grid spec as the coordinator ships it in SPEC: the spec file's
/// text with the `backend` override (if any) appended, and its grid.
struct ShippedGrid {
  std::string text;
  sweep::Grid grid;
};

/// Read and parse `spec_path` as the coordinator will.  Throws
/// std::invalid_argument when the file cannot be read, does not parse,
/// or its SPEC frame would exceed net::kMaxFramePayload (naming the
/// spec's size and the limit): no worker could ever receive it.
[[nodiscard]] ShippedGrid load_shipped_grid(const std::string& spec_path,
                                            const std::string& backend);

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);

  /// Run the sweep to completion and write the merged output.  Throws
  /// std::runtime_error (after killing surviving workers) when the run
  /// cannot complete: spec errors, an unreadable journal or one holding
  /// records of another spec, every worker lost (or, serving, no
  /// worker for accept_grace), a stripe out of attempts, conflicting
  /// records, or a merged-output write failure.
  CoordinatorReport run();

 private:
  CoordinatorOptions options_;
};

}  // namespace dist
