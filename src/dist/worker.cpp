#include "dist/worker.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard_io.hpp"

namespace dist {
namespace {

/// DATA chunk size for streamed stripes: large enough that real
/// stripes move in a handful of frames.
constexpr std::size_t kFetchChunk = 64 * 1024;

/// The heartbeat thread: one HB per interval, carrying the lifetime
/// computed-cell count.  Chaos `hang` silences it (the coordinator
/// must then reclaim by deadline, not by EOF).
class Heartbeat {
 public:
  Heartbeat(net::Transport& transport, std::chrono::milliseconds interval,
            const std::atomic<std::size_t>& computed)
      : transport_(transport), interval_(interval), computed_(computed) {
    thread_ = std::thread([this] { loop(); });
  }

  ~Heartbeat() {
    {
      const support::LockGuard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void silence() DLS_EXCLUDES(mutex_) {
    const support::LockGuard lock(mutex_);
    silenced_ = true;
  }

 private:
  void loop() DLS_EXCLUDES(mutex_) {
    support::UniqueLock lock(mutex_);
    while (!stop_) {
      // One beat per interval: sleep on the condvar with a deadline so
      // a stop request interrupts the wait instead of riding it out.
      const auto beat_at = std::chrono::steady_clock::now() + interval_;
      while (!stop_ && cv_.wait_until(mutex_, beat_at) != std::cv_status::timeout) {
      }
      if (stop_) return;
      if (silenced_) continue;
      lock.unlock();
      (void)transport_.send(
          encode(WorkerMsg{HeartbeatMsg{computed_.load(std::memory_order_relaxed)}}));
      lock.lock();
    }
  }

  net::Transport& transport_;
  std::chrono::milliseconds interval_;
  const std::atomic<std::size_t>& computed_;
  std::thread thread_;
  support::Mutex mutex_;
  support::CondVar cv_;
  bool stop_ DLS_GUARDED_BY(mutex_) = false;
  bool silenced_ DLS_GUARDED_BY(mutex_) = false;
};

[[nodiscard]] bool send_msg(net::Transport& transport, const WorkerMsg& msg) {
  return transport.send(encode(msg));
}

/// Stream the published stripe file back as ordered DATA chunks.
/// `fetchcut` chaos (already armed by the caller) dies after the first
/// chunk, which it caps at half the stripe so the stream is cut even
/// when the stripe would fit one chunk -- the mid-transfer-death case
/// the coordinator must recover from by discarding the partial stream
/// and adopting or re-leasing the stripe.
[[nodiscard]] bool answer_fetch(net::Transport& transport, const WorkerOptions& options,
                                const FetchMsg& fetch, bool fetchcut_now) {
  std::ifstream in(stripe_final_path(options.workdir, fetch.stripe), std::ios::binary);
  if (!in) {
    return send_msg(transport, FailMsg{fetch.stripe, fetch.attempt, "fetch: stripe file missing"});
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = std::move(buffer).str();
  const std::uint64_t checksum = net::fnv1a64(bytes);
  const std::size_t chunk_size =
      fetchcut_now ? std::min(kFetchChunk, std::max<std::size_t>(1, bytes.size() / 2))
                   : kFetchChunk;
  std::size_t offset = 0;
  do {
    DataMsg chunk;
    chunk.stripe = fetch.stripe;
    chunk.attempt = fetch.attempt;
    chunk.offset = offset;
    chunk.total = bytes.size();
    chunk.checksum = checksum;
    chunk.bytes = bytes.substr(offset, chunk_size);
    offset += chunk.bytes.size();
    if (!send_msg(transport, chunk)) return false;
    if (fetchcut_now) ::raise(SIGKILL);
  } while (offset < bytes.size());
  return true;
}

}  // namespace

int run_worker_on_transport(const WorkerOptions& options, net::Transport& transport) {
  if (!transport.send(encode(WorkerMsg{HelloMsg{kProtocolVersion, options.token}}))) {
    std::cerr << "dls_sweep work: coordinator hung up during handshake\n";
    return 1;
  }
  // The SPEC reply supplies the grid: the wire is the worker's only
  // source for it, whether or not it shares the coordinator's disk.
  sweep::Grid grid;
  std::string spec_line;
  const auto spec_status = transport.recv(spec_line, options.idle_timeout);
  if (spec_status != net::Transport::RecvStatus::ok) {
    std::cerr << "dls_sweep work: no SPEC from coordinator ("
              << (spec_status == net::Transport::RecvStatus::timeout ? "timeout" : "closed")
              << ")\n";
    return 1;
  }
  try {
    const CoordinatorMsg msg = parse_coordinator_msg(spec_line);
    const auto* spec = std::get_if<SpecMsg>(&msg);
    if (spec == nullptr) throw std::invalid_argument("expected SPEC, got '" + spec_line + "'");
    grid = sweep::parse_grid(spec->text);
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep work: " << e.what() << "\n";
    return 1;
  }

  std::atomic<std::size_t> computed_total{0};
  Heartbeat heartbeat(transport, options.heartbeat_interval, computed_total);

  // Chaos state: the current writer so `truncate` can tear the live
  // shard stream mid-record before dying.  `fetchcut` does not fire
  // here -- it arms and then strikes inside the FETCH reply.
  sweep::ShardWriter* live_writer = nullptr;
  bool chaos_armed = options.chaos.has_value();
  const auto chaos_due = [&] {
    return chaos_armed &&
           computed_total.load(std::memory_order_relaxed) >= options.chaos->after_cells;
  };
  const auto maybe_chaos = [&] {
    if (!chaos_due() || options.chaos->mode == ChaosMode::fetchcut) return;
    chaos_armed = false;
    switch (options.chaos->mode) {
      case ChaosMode::kill:
        ::raise(SIGKILL);
        break;
      case ChaosMode::truncate:
        // A record prefix cut mid-field: exactly the bytes a real
        // mid-write kill leaves, which scan_records must drop as the
        // partial tail when the coordinator reclaims this attempt.
        if (live_writer != nullptr) {
          live_writer->stream() << "{\"cell\":4294967295,\"of\":" << std::flush;
        }
        ::raise(SIGKILL);
        break;
      case ChaosMode::hang:
        // Go silent without dying: stop heartbeating and freeze.  Only
        // the coordinator's lease deadline can reclaim this worker.
        heartbeat.silence();
        for (;;) ::pause();
      case ChaosMode::fetchcut:
        break;
    }
  };

  if (!send_msg(transport, ReadyMsg{})) return 1;

  for (;;) {
    std::string line;
    const auto status = transport.recv(line, options.idle_timeout);
    if (status == net::Transport::RecvStatus::closed) {
      // EOF without QUIT: the coordinator is gone; exit quietly unless
      // the stream itself was garbage.
      if (!transport.error().empty()) {
        std::cerr << "dls_sweep work: " << transport.error() << "\n";
        return 1;
      }
      return 0;
    }
    if (status == net::Transport::RecvStatus::timeout) {
      // Half-open-link guard: the coordinator pings an idle worker
      // every heartbeat interval, so a silence this long means the link
      // is wedged even though the socket never EOF'd.
      std::cerr << "dls_sweep work: coordinator idle past "
                << options.idle_timeout.count() << "ms, giving up\n";
      return 1;
    }

    CoordinatorMsg msg;
    try {
      msg = parse_coordinator_msg(line);
    } catch (const std::exception& e) {
      std::cerr << "dls_sweep work: " << e.what() << "\n";
      return 1;
    }
    if (std::holds_alternative<QuitMsg>(msg)) return 0;
    if (std::holds_alternative<PingMsg>(msg)) continue;  // arrival reset the idle clock
    if (std::holds_alternative<SpecMsg>(msg)) continue;  // already have the grid
    if (const auto* fetch = std::get_if<FetchMsg>(&msg)) {
      const bool cut = chaos_due() && options.chaos->mode == ChaosMode::fetchcut;
      if (cut) chaos_armed = false;
      if (!answer_fetch(transport, options, *fetch, cut)) return 1;
      continue;
    }
    const auto& lease = std::get<LeaseMsg>(msg);

    try {
      // Carry forward what the prior attempts already flushed.
      // merge_records both deduplicates and ENFORCES that overlapping
      // attempts agree byte-for-byte -- the deterministic-record
      // contract a reclaimed stripe must uphold.
      std::vector<std::vector<std::string>> prior;
      for (const std::size_t attempt : lease.resume_attempts) {
        std::ifstream in(stripe_attempt_path(options.workdir, lease.stripe, attempt));
        if (!in) continue;  // never flushed anything before dying
        const sweep::ScanResult scanned = sweep::scan_records(in);
        sweep::validate_records_for_grid(grid, scanned.lines);
        prior.push_back(scanned.lines);
      }
      const std::vector<std::string> survivors = sweep::merge_records(prior);
      std::set<sweep::RecordKey> done;
      for (const std::string& record : survivors) {
        if (const auto key = sweep::record_key(record)) done.insert(*key);
      }

      sweep::ShardWriter writer(
          stripe_final_path(options.workdir, lease.stripe),
          stripe_attempt_path(options.workdir, lease.stripe, lease.attempt));
      live_writer = &writer;
      for (const std::string& record : survivors) writer.append_line(record);

      sweep::SweepRunner::Options run_options;
      run_options.threads = options.threads;
      run_options.shard_index = lease.stripe;
      run_options.shard_count = lease.stripe_count;
      const sweep::SweepRunner runner(run_options);
      std::size_t skipped = 0;
      const auto observer = [&](const sweep::SweepRunner::CellEvent& event) {
        if (event.skipped) {
          ++skipped;
          return;
        }
        computed_total.fetch_add(1, std::memory_order_relaxed);
        maybe_chaos();
      };
      const std::size_t computed = runner.run(grid, done, writer.stream(), observer);
      writer.commit();
      live_writer = nullptr;
      // Publish-then-report: the rename above is the durable state
      // change, DONE is only the notification of it.  The published
      // file stays put -- it is the source the FETCH reply streams from.
      if (!send_msg(transport, DoneMsg{lease.stripe, lease.attempt, computed, skipped})) return 1;
    } catch (const std::exception& e) {
      live_writer = nullptr;
      if (!send_msg(transport, FailMsg{lease.stripe, lease.attempt, e.what()})) return 1;
    }
  }
}

int run_worker(const WorkerOptions& options) {
  if (options.connect.empty()) {
    struct stat in {};
    if (::fstat(STDIN_FILENO, &in) != 0 || !S_ISSOCK(in.st_mode)) {
      std::cerr << "dls_sweep work: stdin is not a socket; run under `dls_sweep coordinate`, "
                   "or pass --connect host:port\n";
      return 2;
    }
    net::Transport transport(STDIN_FILENO);
    return run_worker_on_transport(options, transport);
  }
  try {
    const net::HostPort address = net::parse_host_port(options.connect);
    net::Transport transport(
        net::connect_with_retry(address, options.connect_attempts, options.connect_backoff));
    return run_worker_on_transport(options, transport);
  } catch (const std::exception& e) {
    std::cerr << "dls_sweep work: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dist
