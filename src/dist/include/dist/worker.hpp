#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>

#include "dist/protocol.hpp"
#include "net/transport.hpp"

namespace dist {

/// One worker of a distributed sweep (`dls_sweep work`).
///
/// The worker speaks the framed protocol (dist/protocol.hpp) on one
/// socket: the stdin socketpair a `dls_sweep coordinate` spawned it
/// on, or a TCP link it dials itself (`--connect host:port`, against
/// `dls_sweep serve`).  Either way it sends HELLO, takes the grid from
/// the SPEC reply, announces READY, then serves LEASE messages until
/// QUIT or link loss.  Each lease runs one stripe of the grid through
/// sweep::SweepRunner (stripe identity = shard identity, so the
/// records are bitwise the ones a standalone `--shard stripe/stripes`
/// run would produce), streaming records into the attempt's temp file
/// in `workdir` via sweep::ShardWriter and publishing the stripe file
/// atomically on completion.  DONE is only sent after the rename, and
/// the coordinator answers it with FETCH: the published file streams
/// back as checksummed DATA chunks.  A death between publish and
/// FETCH leaves a complete stripe -- adopted by a coordinator that
/// shares the workdir, re-leased by one that does not.  Prior
/// attempts named in the lease are scanned through
/// sweep::scan_records/merge_records first: their surviving records
/// are carried forward (and cross-attempt conflicts throw -- records
/// are deterministic, a reclaimed stripe must reproduce the dead
/// worker's bytes), so a retry only computes what the dead worker
/// never flushed.
///
/// A dedicated thread heartbeats `HB <computed_total>` every interval
/// regardless of how long a cell takes; only death (or chaos-induced
/// hanging) silences it.
struct WorkerOptions {
  std::string workdir;    ///< shard-file directory (shared with a spawning coordinator)
  unsigned threads = 1;   ///< SweepRunner pool width per lease
  std::chrono::milliseconds heartbeat_interval{200};
  /// Fault injection: once the lifetime computed-cell count reaches
  /// `after_cells`, die (kill), tear the record stream then die
  /// (truncate), silently freeze (hang), or die mid-FETCH-reply
  /// (fetchcut).  See protocol.hpp.
  std::optional<ChaosKill> chaos;

  /// "host:port" of a `dls_sweep serve` coordinator to dial.  Empty =
  /// the link is stdin, which must be a socket.
  std::string connect;
  std::string token;  ///< HELLO auth token (must match the coordinator's)
  /// Give up and exit 1 when the coordinator sends nothing (not even
  /// PING) for this long between leases -- the half-open-link guard.
  /// The coordinator pings an idle worker every heartbeat interval, so
  /// this only fires when the link is truly wedged.
  std::chrono::milliseconds idle_timeout{10000};
  std::size_t connect_attempts = 40;
  std::chrono::milliseconds connect_backoff{250};
};

/// Serve the protocol until QUIT or link loss, on stdin or on a dialed
/// link (`options.connect`).  Returns the process exit code: 0 =
/// orderly shutdown; 1 = unrecoverable worker error after reporting
/// what it could; 2 = no link (stdin is not a socket).
[[nodiscard]] int run_worker(const WorkerOptions& options);

/// The protocol loop on an already-connected link, from HELLO on.
/// Exposed for tests that play the coordinator's side by hand (e.g.
/// the idle-timeout regression test).
[[nodiscard]] int run_worker_on_transport(const WorkerOptions& options,
                                          net::Transport& transport);

}  // namespace dist
