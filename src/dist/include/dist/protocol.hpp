#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dist {

/// The coordinator/worker wire protocol of the fault-tolerant sweep.
///
/// Messages are ASCII heads with optional binary tails, one per
/// length-delimited frame (net/frame.hpp), over one stream socket per
/// worker: the AF_UNIX socketpair `coordinate` spawns a worker on, or
/// the TCP link a `work --connect` worker dials.  The worker is
/// stateless: it writes no file, and sends each record as RECORD the
/// moment it commits it.  The coordinator appends every record it
/// accepts to one record journal in its own workdir
/// (`records.jsonl`, through sweep::ShardWriter) and finishes the
/// stripe when DONE checks out and the journal is fsynced, so whatever
/// a dead worker already sent is on the coordinator's disk, whoever and
/// wherever the worker was.
///
/// A session runs HELLO -> SPEC -> READY -> LEASE -> RECORD ... ->
/// DONE -> verified and synced, then the next LEASE, until QUIT.
///
/// Coordinator -> worker:
///   SPEC <spec bytes...>                     (the reply to HELLO)
///   LEASE <stripe> <stripe_count> <attempt> <held>
///   PING                                     (keepalive probe)
///   QUIT
/// Worker -> coordinator:
///   HELLO <version> <token|->                (first message)
///   READY
///   HB <computed_total>
///   RECORD <bytes...>
///   DONE <stripe> <attempt> <records> <digest>
///   FAIL <stripe> <attempt> <message...>
///
/// `held` is how many of the stripe's owned cells, from the first in
/// canonical order, the coordinator already holds records for: a
/// retry skips them, so no record a dead worker sent is ever computed
/// again.  The coordinator accepts records in owned-cell order only,
/// which is what keeps the held cells a prefix.
///
/// Nothing on the wire assumes a shared filesystem: SPEC ships the
/// grid down and RECORD streams the results up.  DONE closes the
/// stream with its record count and FNV-1a 64 digest, which must match
/// what arrived before the coordinator accepts the stripe as done.
/// SPEC is one frame, so a grid whose SPEC frame would exceed
/// net::kMaxFramePayload is refused before any worker starts.  Nor
/// does anything assume trust: HELLO carries a protocol version and a
/// shared token, and anything else as a link's first message is a
/// protocol death.
/// SPEC and RECORD carry binary tails -- embedded newlines and
/// arbitrary record bytes -- which is why the wire uses
/// length-delimited frames rather than newline framing.  PING is
/// coordinator->worker keepalive for idle workers: a half-open TCP link
/// never EOFs, so liveness must be probed, not inferred from the
/// stream state.

/// Grant of stripe `stripe` of `stripe_count` (the sweep/stripe.hpp
/// striping -- lease identity IS shard identity) as attempt `attempt`;
/// the first `held` owned cells are skipped.
struct LeaseMsg {
  std::size_t stripe = 0;
  std::size_t stripe_count = 1;
  std::size_t attempt = 0;
  std::size_t held = 0;
};

/// Orderly shutdown; the worker exits 0.
struct QuitMsg {};

/// Wire-format revision.  Bumped when message
/// layout changes incompatibly; HELLO carries it so a version-skewed
/// worker is turned away at the door instead of failing mid-sweep.
constexpr std::size_t kProtocolVersion = 2;

/// Keepalive probe.  Workers ignore it (arrival alone resets their
/// idle clock); its real job is to make the coordinator's send path
/// touch every link periodically, so a half-open TCP connection
/// surfaces as a send failure instead of idling forever.
struct PingMsg {};

/// The sweep spec, the coordinator's reply to a worker's HELLO (the
/// wire is every worker's only source for the grid).  The text is the full grid spec (with the
/// backend line already appended), newlines included.
struct SpecMsg {
  std::string text;
};

/// A worker's reply to SPEC: the spec parsed, ready for leases.
struct ReadyMsg {};

/// Liveness beacon, sent every heartbeat interval from a dedicated
/// thread (so a long-running cell cannot starve it); `computed` is the
/// worker's lifetime computed-cell count, a progress signal for free.
struct HeartbeatMsg {
  std::size_t computed = 0;
};

/// Most record bytes one RECORD carries.  A record whose `experiment`
/// echo lists hundreds of thousands of workers outgrows one frame
/// (net::kMaxFramePayload), so it crosses as several RECORDs.
constexpr std::size_t kRecordPiece = 1u << 20;

/// A piece of the current lease's record stream: record lines, each
/// ending in '\n', in owned-cell order.  A piece that does not end in
/// '\n' continues in the next RECORD.
struct RecordMsg {
  std::string bytes;
};

/// The lease's records are all sent: `records` lines whose bytes
/// (newlines included) digest to `digest` (net::fnv1a64, 16 hex digits
/// on the wire).
struct DoneMsg {
  std::size_t stripe = 0;
  std::size_t attempt = 0;
  std::size_t records = 0;
  std::uint64_t digest = 0;
};

/// The lease failed (run error, lost records, ...); the worker
/// stays alive and leasable.  The coordinator retries the stripe
/// elsewhere with backoff.
struct FailMsg {
  std::size_t stripe = 0;
  std::size_t attempt = 0;
  std::string message;
};

/// First message on a link, before anything else: protocol
/// version + shared secret ("-" = no token).  The coordinator answers
/// with SPEC; a wrong token or version gets the link dropped and an
/// "auth"/"version" death logged.
struct HelloMsg {
  std::size_t version = kProtocolVersion;
  std::string token;
};

using CoordinatorMsg = std::variant<LeaseMsg, QuitMsg, PingMsg, SpecMsg>;
using WorkerMsg = std::variant<ReadyMsg, HeartbeatMsg, RecordMsg, DoneMsg, FailMsg, HelloMsg>;

[[nodiscard]] std::string encode(const CoordinatorMsg& msg);
[[nodiscard]] std::string encode(const WorkerMsg& msg);

/// Parse one protocol line (without the trailing newline).  Throws
/// std::invalid_argument naming the malformed line -- a garbled
/// control stream is a failed peer, never silently ignored.
[[nodiscard]] CoordinatorMsg parse_coordinator_msg(std::string_view line);
[[nodiscard]] WorkerMsg parse_worker_msg(std::string_view line);

/// `<dir>/stripe<k>.jsonl`.  The coordinator writes no stripe files
/// (its records go to one journal); this name is kept only for the
/// perfbench pass, which still reads it.
// dls-lint: allow(callerless-api)
[[nodiscard]] std::string stripe_final_path(std::string_view dir, std::size_t stripe);

/// Capped exponential backoff before retrying a reclaimed stripe:
/// min(cap, base * 2^(attempt-1)) for attempt >= 1 (saturating, no
/// overflow for any attempt).
[[nodiscard]] std::chrono::milliseconds backoff_delay(std::size_t attempt,
                                                      std::chrono::milliseconds base,
                                                      std::chrono::milliseconds cap);

/// Fault injection -- the chaos harness.  A directive makes worker
/// `worker` misbehave once its lifetime computed-cell count reaches
/// `after_cells` (each of those cells' records already sent):
///   kill      raise(SIGKILL) between records -- the clean-death case
///   hang      stop heartbeating and freeze -- the zombie case, which
///             only the coordinator's lease deadline can reclaim
enum class ChaosMode { kill, hang };

struct ChaosKill {
  std::size_t worker = 0;
  std::size_t after_cells = 1;
  ChaosMode mode = ChaosMode::kill;
};

[[nodiscard]] std::string_view chaos_mode_name(ChaosMode mode);
[[nodiscard]] ChaosMode parse_chaos_mode(std::string_view name);

/// Parse a chaos directive list: `<worker>:<after_cells>[:<mode>]`,
/// comma-separated, e.g. "1:2,3:4:hang".  Throws
/// std::invalid_argument on malformed entries.
[[nodiscard]] std::vector<ChaosKill> parse_chaos_list(std::string_view text);

/// Derive `kills` chaos directives from a seed (splitmix64 stream):
/// distinct workers, kill points in [1, max_after], mode kill -- the
/// "seeded points" form the CI chaos job uses.  kills must be <=
/// workers.
[[nodiscard]] std::vector<ChaosKill> derive_chaos(std::uint64_t seed, std::size_t kills,
                                                  std::size_t workers, std::size_t max_after);

/// One entry of the coordinator's lease-event log (JSONL, one line per
/// event), the audit trail the lease-exclusivity invariant replays.
/// `seq` is a per-run monotonic counter -- ordering without wall
/// clocks, so logs are deterministic under test.
///
/// Kinds and their fields:
///   spawn    worker [detail]     a worker process spawned (detail
///                                "accept" = a remote worker connected)
///   hello    worker              handshake verified (version +
///                                token); precedes any lease to that
///                                worker -- see check/net.hpp
///   ready    worker              its READY arrived
///   lease    worker stripe attempt          lease granted
///   done     worker stripe attempt          DONE verified against the
///                                           received records and the
///                                           journal fsynced
///   adopt    stripe                         a stripe whose every owned
///                                           cell the journal held at
///                                           a coordinator restart
///   reclaim  worker stripe attempt detail   lease taken back (detail:
///                                           the death reason, or
///                                           fail: <message>)
///   retry    stripe attempt backoff_ms      retry scheduled
///   dead     worker detail                  worker exited/was killed
///                                           (detail adds: protocol|
///                                           auth|version|hello-timeout)
///   giveup   stripe attempt                 retries exhausted
///   complete                                 all stripes done, merged
struct LeaseEvent {
  std::size_t seq = 0;
  std::string kind;
  std::size_t worker = npos;
  std::size_t stripe = npos;
  std::size_t attempt = npos;
  std::int64_t backoff_ms = -1;
  std::string detail;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

[[nodiscard]] std::string encode_lease_event(const LeaseEvent& event);
/// nullopt if the line is not a lease event (e.g. truncated by a
/// coordinator kill -- tolerated at a log tail like record tails).
[[nodiscard]] std::optional<LeaseEvent> parse_lease_event(std::string_view line);

}  // namespace dist
