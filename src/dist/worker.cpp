#include "dist/worker.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/thread_annotations.hpp"

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "sweep/runner.hpp"
#include "sweep/stripe.hpp"

namespace dist {
namespace {

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

/// Send record bytes as RECORDs of at most kRecordPiece bytes each.
[[nodiscard]] bool send_record(net::Transport& transport, std::string_view bytes) {
  for (std::size_t at = 0; at < bytes.size(); at += kRecordPiece) {
    if (!send_msg(transport, RecordMsg{std::string(bytes.substr(at, kRecordPiece))})) {
      return false;
    }
  }
  return true;
}

/// The cells a lease skips: the first `held` cells the stripe owns.
[[nodiscard]] std::set<std::size_t> held_cells(const sweep::Grid& grid, const LeaseMsg& lease) {
  std::set<std::size_t> held;
  sweep::for_each_owned_index(grid, lease.stripe, lease.stripe_count, [&](std::size_t index) {
    if (held.size() == lease.held) return false;
    held.insert(index);
    return true;
  });
  return held;
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

  bool chaos_armed = options.chaos.has_value();
  const auto maybe_chaos = [&] {
    if (!chaos_armed ||
        computed_total.load(std::memory_order_relaxed) < options.chaos->after_cells) {
      return;
    }
    chaos_armed = false;
    switch (options.chaos->mode) {
      case ChaosMode::kill:
        ::raise(SIGKILL);
        break;
      case ChaosMode::hang:
        // Go silent without dying: stop heartbeating and freeze.  Only
        // the coordinator's lease deadline can reclaim this worker.
        heartbeat.silence();
        for (;;) ::pause();
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
    const auto& lease = std::get<LeaseMsg>(msg);

    try {
      sweep::SweepRunner::Options run_options;
      run_options.threads = options.threads;
      run_options.shard_index = lease.stripe;
      run_options.shard_count = lease.stripe_count;
      const sweep::SweepRunner runner(run_options);
      // The runner writes and flushes one record line at a time, and
      // the observer sees each right after: send it from there.
      std::ostringstream out;
      DoneMsg done{lease.stripe, lease.attempt, 0, net::kFnv1a64Basis};
      const auto observer = [&](const sweep::SweepRunner::CellEvent& event) {
        if (event.skipped) return;
        const std::string record = out.str();
        out.str({});
        if (!send_record(transport, record)) throw std::runtime_error("coordinator link lost");
        done.records += 1;
        done.digest = net::fnv1a64(record, done.digest);
        computed_total.fetch_add(1, std::memory_order_relaxed);
        maybe_chaos();
      };
      (void)runner.run(grid, held_cells(grid, lease), out, observer);
      if (!send_msg(transport, done)) return 1;
    } catch (const std::exception& e) {
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
