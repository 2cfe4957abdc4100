#include "dist/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "sweep/grid.hpp"
#include "sweep/record.hpp"
#include "sweep/shard_io.hpp"
#include "sweep/stripe.hpp"

namespace dist {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t npos = LeaseEvent::npos;

[[nodiscard]] std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// One supervised worker: a framed link that must HELLO before
/// anything else.  Spawned workers also carry their process id
/// (pid > 0), so a misbehaving one is SIGKILLed and reaped, not only
/// hung up on; accepted ones have pid == -1.  The lease logic never
/// looks past `transport`.
struct WorkerLink {
  pid_t pid = -1;
  std::unique_ptr<net::Transport> transport;
  bool alive = false;
  bool hello = false;  ///< handshake done
  bool ready = false;
  std::size_t lease = npos;  ///< stripe currently held
  Clock::time_point last_msg;
  Clock::time_point last_ping;
};

/// One stripe.  `held` counts its owned cells, from the first in
/// canonical order, whose records the journal holds: a lease resumes
/// past them.
struct StripeState {
  enum class Status { pending, leased, done };
  Status status = Status::pending;
  std::size_t attempts = 0;   ///< lease attempts granted so far
  Clock::time_point ready_at;  ///< backoff gate for the next lease
  std::size_t holder = npos;
  std::vector<std::size_t> owned;  ///< cell indices, canonical order
  std::size_t held = 0;

  // The live lease's RECORD stream, which its DONE must match.
  std::size_t received = 0;
  std::uint64_t digest = net::kFnv1a64Basis;
  std::string partial;  ///< record bytes still waiting for their newline
};

[[nodiscard]] std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error(errno_message("readlink /proc/self/exe"));
  return std::string(buf, static_cast<std::size_t>(n));
}

/// The full run state; a helper class so the kill-children cleanup is
/// RAII (any throw out of run() must not leak worker processes).
class Run {
 public:
  explicit Run(const CoordinatorOptions& options)
      : options_(options), serving_(!options.listen.empty()) {}

  ~Run() {
    for (WorkerLink& worker : workers_) {
      if (worker.alive) terminate(worker);
    }
  }

  CoordinatorReport run() {
    setup();
    if (!serving_) spawn_workers();
    supervise();
    shutdown_workers();
    merge();
    log({.kind = "complete"});
    return report_;
  }

 private:
  // ---- setup -------------------------------------------------------

  void setup() {
    try {
      ShippedGrid shipped = load_shipped_grid(options_.spec_path, options_.backend);
      grid_text_ = std::move(shipped.text);
      grid_ = std::move(shipped.grid);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("spec: ") + e.what());
    }

    if (options_.workers == 0) throw std::runtime_error("coordinate: workers must be >= 1");
    stripes_ = options_.stripes != 0 ? options_.stripes : 4 * options_.workers;
    stripes_ = std::max<std::size_t>(1, std::min(stripes_, grid_.cells()));
    report_.stripes = stripes_;

    if (::mkdir(options_.workdir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw std::runtime_error(errno_message("mkdir " + options_.workdir));
    }
    const std::string events_path = options_.workdir + "/events.jsonl";
    events_.open(events_path, std::ios::app);
    if (!events_) throw std::runtime_error("cannot write events log " + events_path);

    // A coordinator restart resumes from the journal the way `dls_sweep
    // --resume` resumes its --out: whatever striping this run uses.
    sweep::RecordFile journal;
    try {
      journal = sweep::open_record_file(grid_, journal_path(), /*resume=*/true);
    } catch (const std::exception& e) {
      throw std::runtime_error("coordinate: " + journal_path() + ": " + e.what());
    }
    journal_ = std::move(journal.writer);
    journaled_.resize(grid_.cells());
    for (const std::size_t index : journal.done) journaled_[index] = true;

    stripe_states_.resize(stripes_);
    const Clock::time_point now = Clock::now();
    for (std::size_t s = 0; s < stripes_; ++s) {
      StripeState& stripe = stripe_states_[s];
      stripe.ready_at = now;
      sweep::for_each_owned_index(grid_, s, stripes_, [&stripe](std::size_t index) {
        stripe.owned.push_back(index);
        return true;
      });
      while (stripe.held < stripe.owned.size() && journaled_[stripe.owned[stripe.held]]) {
        stripe.held += 1;
      }
      if (stripe.held == stripe.owned.size()) {
        stripe.status = StripeState::Status::done;
        report_.adopted += 1;
        log({.kind = "adopt", .stripe = s});
      }
    }

    if (serving_) {
      listener_ = std::make_unique<net::Listener>(net::parse_host_port(options_.listen));
      if (options_.on_listening) options_.on_listening(listener_->port());
      last_live_ = now;
    }
  }

  /// Fork/exec `work ...` per worker, each on the child end of its own
  /// socketpair as stdin (stdout goes to stderr).  The worker speaks
  /// the same framed protocol an accepted socket does -- HELLO, SPEC,
  /// READY, leases, RECORDs -- and shares nothing else with us.
  void spawn_workers() {
    std::vector<std::string> command = options_.worker_command;
    if (command.empty()) command = {self_exe()};

    for (std::size_t w = 0; w < options_.workers; ++w) {
      std::vector<std::string> argv = command;
      argv.insert(argv.end(), {"work", "--threads", std::to_string(options_.worker_threads)});
      argv.insert(argv.end(),
                  {"--heartbeat-ms", std::to_string(options_.heartbeat_interval.count())});
      for (const ChaosKill& kill : options_.chaos) {
        if (kill.worker != w) continue;
        argv.insert(argv.end(), {"--chaos-after", std::to_string(kill.after_cells)});
        argv.insert(argv.end(), {"--chaos-mode", std::string(chaos_mode_name(kill.mode))});
      }

      // Both ends close on exec, so no worker inherits another's link;
      // dup2 clears the flag on the child's stdin copy.
      int ends[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0) {
        throw std::runtime_error(errno_message("socketpair"));
      }

      std::vector<char*> c_argv;
      c_argv.reserve(argv.size() + 1);
      for (std::string& arg : argv) c_argv.push_back(arg.data());
      c_argv.push_back(nullptr);

      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error(errno_message("fork"));
      if (pid == 0) {
        // Child: only async-signal-safe calls between fork and exec.
        ::dup2(ends[1], STDIN_FILENO);
        ::dup2(STDERR_FILENO, STDOUT_FILENO);
        ::execv(c_argv[0], c_argv.data());
        ::_exit(127);
      }
      ::close(ends[1]);
      add_worker(ends[0], pid, "");
    }
  }

  /// Supervise a new link, which must HELLO before anything else.  The
  /// write deadline doubles as the half-open guard on sends: a worker
  /// that stops draining for a whole lease deadline is dead.
  void add_worker(int fd, pid_t pid, std::string detail) {
    WorkerLink worker;
    worker.pid = pid;
    worker.transport = std::make_unique<net::Transport>(
        fd, std::max(options_.lease_deadline, std::chrono::milliseconds(1000)));
    worker.alive = true;
    worker.last_msg = Clock::now();
    worker.last_ping = worker.last_msg;
    workers_.push_back(std::move(worker));
    log({.kind = "spawn", .worker = workers_.size() - 1, .detail = std::move(detail)});
  }

  // ---- supervision loop --------------------------------------------

  [[nodiscard]] bool all_done() const {
    return std::all_of(stripe_states_.begin(), stripe_states_.end(), [](const StripeState& s) {
      return s.status == StripeState::Status::done;
    });
  }

  void supervise() {
    while (!all_done()) {
      if (serving_) accept_new();
      dispatch();
      check_liveness_floor();
      send_pings();
      poll_once();
      check_deadlines();
    }
  }

  /// Classic mode fails the instant every spawned worker is dead (no
  /// one can ever come back); serve mode tolerates an empty worker set
  /// for accept_grace, because remote workers connect on their own
  /// schedule and can reconnect after a crash.
  void check_liveness_floor() {
    if (all_done()) return;
    if (live_workers() > 0) {
      last_live_ = Clock::now();
      return;
    }
    if (!serving_) {
      throw std::runtime_error(
          "coordinate: every worker died; " + std::to_string(pending_stripes()) +
          " stripe(s) unfinished (every record received is kept in " + journal_path() +
          " -- re-running the coordinator resumes them)");
    }
    if (Clock::now() - last_live_ >= options_.accept_grace) {
      throw std::runtime_error(
          "serve: no live worker for " + std::to_string(options_.accept_grace.count()) +
          "ms; " + std::to_string(pending_stripes()) + " stripe(s) unfinished");
    }
  }

  void accept_new() {
    for (;;) {
      const int fd = listener_->accept_nonblocking();
      if (fd < 0) return;
      add_worker(fd, -1, "accept");
    }
  }

  [[nodiscard]] std::size_t live_workers() const {
    return static_cast<std::size_t>(std::count_if(
        workers_.begin(), workers_.end(), [](const WorkerLink& w) { return w.alive; }));
  }

  [[nodiscard]] std::size_t pending_stripes() const {
    return static_cast<std::size_t>(std::count_if(
        stripe_states_.begin(), stripe_states_.end(),
        [](const StripeState& s) { return s.status != StripeState::Status::done; }));
  }

  void dispatch() {
    const Clock::time_point now = Clock::now();
    for (std::size_t s = 0; s < stripes_; ++s) {
      StripeState& stripe = stripe_states_[s];
      if (stripe.status != StripeState::Status::pending || stripe.ready_at > now) continue;
      const std::size_t w = find_idle_worker();
      if (w == npos) return;
      grant_lease(w, s);
    }
  }

  [[nodiscard]] std::size_t find_idle_worker() const {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const WorkerLink& worker = workers_[w];
      if (worker.alive && worker.hello && worker.ready && worker.lease == npos) return w;
    }
    return npos;
  }

  void grant_lease(std::size_t w, std::size_t s) {
    StripeState& stripe = stripe_states_[s];
    const LeaseMsg lease{s, stripes_, stripe.attempts, stripe.held};
    if (!workers_[w].transport->send(encode(CoordinatorMsg(lease)))) {
      // The link is broken (peer gone, or stalled past the write
      // deadline -- a link that may never EOF): reap it here; the
      // stripe stays pending.
      drop_worker(w, "exit");
      return;
    }
    stripe.received = 0;
    stripe.digest = net::kFnv1a64Basis;
    stripe.status = StripeState::Status::leased;
    stripe.holder = w;
    stripe.attempts += 1;
    workers_[w].lease = s;
    if (stripe.attempts > 1) report_.retries += 1;
    log({.kind = "lease", .worker = w, .stripe = s, .attempt = lease.attempt});
  }

  /// Keepalive probes to idle workers, every heartbeat interval.  They
  /// are load-bearing twice over: the worker's idle timeout counts on
  /// them, and a half-open link eventually fails the send (caught here
  /// or at the next lease grant).  A worker holding a lease is not
  /// reading its link, so unread pings would only fill the socket
  /// buffer until a send fails and a healthy worker is killed; its
  /// heartbeats and the lease deadline cover liveness.
  void send_pings() {
    const Clock::time_point now = Clock::now();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerLink& worker = workers_[w];
      if (!worker.alive || !worker.hello || worker.lease != npos) continue;
      if (now - worker.last_ping < options_.heartbeat_interval) continue;
      worker.last_ping = now;
      if (!worker.transport->send(encode(CoordinatorMsg(PingMsg{})))) drop_worker(w, "exit");
    }
  }

  void poll_once() {
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_workers;
    if (serving_) {
      fds.push_back(pollfd{listener_->fd(), POLLIN, 0});
      fd_workers.push_back(npos);
    }
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].alive) continue;
      fds.push_back(pollfd{workers_[w].transport->poll_fd(), POLLIN, 0});
      fd_workers.push_back(w);
    }
    const int timeout_ms =
        static_cast<int>(std::clamp<std::int64_t>(poll_timeout().count(), 1, 200));
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return;
      throw std::runtime_error(errno_message("poll"));
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fd_workers[i] == npos) continue;  // listener readiness; accept_new picks it up
      read_worker(fd_workers[i]);
    }
  }

  /// Sleep no longer than the next actionable instant: the earliest
  /// worker deadline, ping due, or stripe backoff expiry.
  [[nodiscard]] std::chrono::milliseconds poll_timeout() const {
    const Clock::time_point now = Clock::now();
    Clock::time_point next = now + std::chrono::milliseconds(200);
    for (const WorkerLink& worker : workers_) {
      if (!worker.alive) continue;
      next = std::min(next, worker.last_msg + options_.lease_deadline);
      if (worker.hello && worker.lease == npos) {
        next = std::min(next, worker.last_ping + options_.heartbeat_interval);
      }
    }
    for (const StripeState& stripe : stripe_states_) {
      // Only future backoff expiries matter: a stripe that is ready NOW
      // but unplaced just means every worker is busy, and the next
      // actionable instant is their next message, not a timer.
      if (stripe.status == StripeState::Status::pending && stripe.ready_at > now) {
        next = std::min(next, stripe.ready_at);
      }
    }
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        std::max(next - now, Clock::duration::zero()));
  }

  void read_worker(std::size_t w) {
    std::vector<std::string> messages;
    const bool open = workers_[w].transport->drain(messages);
    for (const std::string& message : messages) {
      if (!workers_[w].alive) break;  // a message after death handling: ignore
      handle_message(w, message);
    }
    if (!open && workers_[w].alive) {
      // EOF or framing failure: the worker is gone.  Messages decoded
      // before the failure were handled above -- a DONE flushed just
      // before death must still count.
      drop_worker(w, workers_[w].transport->error().empty() ? "exit" : "protocol");
    }
  }

  void handle_message(std::size_t w, const std::string& line) {
    WorkerLink& worker = workers_[w];
    worker.last_msg = Clock::now();
    WorkerMsg msg;
    try {
      msg = parse_worker_msg(line);
    } catch (const std::exception&) {
      // A garbled control stream is a failed worker: kill and reclaim.
      drop_worker(w, "protocol");
      return;
    }
    if (const auto* hello = std::get_if<HelloMsg>(&msg)) {
      handle_hello(w, *hello);
      return;
    }
    if (!worker.hello) {
      // A link must introduce itself before anything else; a client
      // speaking leases without credentials is dropped.
      drop_worker(w, "protocol");
      return;
    }
    if (std::holds_alternative<ReadyMsg>(msg)) {
      worker.ready = true;
      log({.kind = "ready", .worker = w});
      return;
    }
    if (std::holds_alternative<HeartbeatMsg>(msg)) return;  // liveness already noted
    if (const auto* record = std::get_if<RecordMsg>(&msg)) {
      handle_record(w, *record);
      return;
    }
    if (const auto* done = std::get_if<DoneMsg>(&msg)) {
      handle_done(w, *done);
      return;
    }
    // A DONE or FAIL for a lease this link does not hold is stale:
    // ignored, never committed.
    const auto& fail = std::get<FailMsg>(msg);
    if (worker.lease != npos && worker.lease == fail.stripe) {
      worker.lease = npos;
      reclaim(fail.stripe, w, "fail: " + fail.message);
    }
  }

  void handle_hello(std::size_t w, const HelloMsg& hello) {
    WorkerLink& worker = workers_[w];
    if (worker.hello) {  // double HELLO
      drop_worker(w, "protocol");
      return;
    }
    if (hello.version != kProtocolVersion) {
      drop_worker(w, "version");
      return;
    }
    if (!options_.token.empty() && hello.token != options_.token) {
      drop_worker(w, "auth");
      return;
    }
    worker.hello = true;
    log({.kind = "hello", .worker = w});
    // Workers get the grid only over the wire, spawned ones included
    // (load_shipped_grid refused a grid too large for one frame).
    if (!worker.transport->send(encode(CoordinatorMsg(SpecMsg{grid_text_})))) {
      drop_worker(w, "exit");
    }
  }

  /// Append the holder's records to the journal as their newlines
  /// arrive.  A record that is not the stripe's next owned cell of this
  /// grid, or a RECORD with no lease, is a protocol death.
  void handle_record(std::size_t w, const RecordMsg& record) {
    if (workers_[w].lease == npos) {
      drop_worker(w, "protocol");
      return;
    }
    StripeState& stripe = stripe_states_[workers_[w].lease];
    stripe.partial += record.bytes;
    std::size_t begin = 0;
    for (std::size_t end; (end = stripe.partial.find('\n', begin)) != std::string::npos;
         begin = end + 1) {
      if (!accept_record(stripe, std::string_view(stripe.partial).substr(begin, end - begin))) {
        drop_worker(w, "protocol");
        return;
      }
    }
    stripe.partial.erase(0, begin);
  }

  [[nodiscard]] bool accept_record(StripeState& stripe, std::string_view line) {
    if (stripe.held == stripe.owned.size()) return false;
    try {
      sweep::validate_records_for_grid(grid_, {std::string(line)});
    } catch (const std::invalid_argument&) {
      return false;
    }
    if (sweep::record_key(line)->cell != stripe.owned[stripe.held]) return false;
    // A restart under other stripes recomputes journaled cells past a
    // stripe's held prefix; the journal keeps each cell's first record,
    // as `dls_sweep --resume` keeps --out's (a wall-clock `runtime`
    // record would not reproduce its bytes).
    if (const std::size_t index = stripe.owned[stripe.held]; !journaled_[index]) {
      journal_->append_line(line);
      journaled_[index] = true;
    }
    stripe.digest = net::fnv1a64("\n", net::fnv1a64(line, stripe.digest));
    stripe.held += 1;
    stripe.received += 1;
    report_.computed += 1;
    return true;
  }

  /// Finish a stripe whose DONE matches the records received: their
  /// count and digest, and every owned cell held.  The stripe is done
  /// only once the journal is fsynced; a failing sync reclaims it.  A
  /// mismatch is a protocol death, which reclaims the stripe too.
  void handle_done(std::size_t w, const DoneMsg& done) {
    WorkerLink& worker = workers_[w];
    if (worker.lease == npos || worker.lease != done.stripe) return;  // stale
    StripeState& stripe = stripe_states_[done.stripe];
    if (done.attempt + 1 != stripe.attempts || done.records != stripe.received ||
        done.digest != stripe.digest || !stripe.partial.empty() ||
        stripe.held != stripe.owned.size()) {
      drop_worker(w, "protocol");
      return;
    }
    worker.lease = npos;
    try {
      journal_->sync();
    } catch (const std::exception& e) {
      reclaim(done.stripe, w, std::string("fail: ") + e.what());
      return;
    }
    stripe.status = StripeState::Status::done;
    stripe.holder = npos;
    log({.kind = "done", .worker = w, .stripe = done.stripe, .attempt = done.attempt});
  }

  /// Hang up on a live worker, and SIGKILL and reap it too if we
  /// spawned it.
  static void terminate(WorkerLink& worker) {
    worker.alive = false;
    worker.transport->shutdown();
    if (worker.pid > 0) {
      ::kill(worker.pid, SIGKILL);
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
    }
  }

  /// A worker died or misbehaved: terminate it, reclaim its lease and
  /// log the death.
  void drop_worker(std::size_t w, const std::string& reason) {
    WorkerLink& worker = workers_[w];
    if (!worker.alive) return;
    terminate(worker);
    report_.workers_lost += 1;
    // Reclaim BEFORE logging the death: in the event log a lease must
    // never outlive its holder (check::check_lease_exclusivity replays
    // exactly that ordering).
    if (worker.lease != npos) {
      const std::size_t stripe = worker.lease;
      worker.lease = npos;
      reclaim(stripe, w, reason);
    }
    log({.kind = "dead", .worker = w, .detail = reason});
  }

  /// End a lease whose holder died or failed.  The journal keeps every
  /// record accepted so far, and the retry, scheduled behind capped
  /// exponential backoff, resumes past them.
  void reclaim(std::size_t s, std::size_t w, const std::string& reason) {
    StripeState& stripe = stripe_states_[s];
    const std::size_t attempt = stripe.attempts - 1;
    stripe.holder = npos;
    stripe.partial.clear();
    report_.reclaims += 1;
    log({.kind = "reclaim", .worker = w, .stripe = s, .attempt = attempt, .detail = reason});
    if (stripe.attempts >= options_.max_attempts) {
      log({.kind = "giveup", .stripe = s, .attempt = attempt});
      throw std::runtime_error("coordinate: stripe " + std::to_string(s) + " failed " +
                               std::to_string(stripe.attempts) +
                               " attempt(s); giving up (last failure: " + reason + ")");
    }
    const std::chrono::milliseconds backoff =
        backoff_delay(stripe.attempts, options_.backoff_base, options_.backoff_cap);
    stripe.status = StripeState::Status::pending;
    stripe.ready_at = Clock::now() + backoff;
    log({.kind = "retry",
         .stripe = s,
         .attempt = stripe.attempts,
         .backoff_ms = backoff.count()});
  }

  void check_deadlines() {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerLink& worker = workers_[w];
      if (!worker.alive || Clock::now() - worker.last_msg < options_.lease_deadline) continue;
      // Messages that queued while we were busy (checking a large
      // record can outlast a deadline) prove the worker alive.
      read_worker(w);
      if (!worker.alive || Clock::now() - worker.last_msg < options_.lease_deadline) continue;
      // Silent past the deadline: hung, not merely slow (heartbeats
      // flow from a dedicated thread even during long cells).  An
      // accepted link that never even said HELLO gets its own label --
      // that is a port-scanner or a wedged client, not a lost worker.
      drop_worker(w, worker.hello ? "deadline" : "hello-timeout");
    }
  }

  // ---- completion --------------------------------------------------

  void shutdown_workers() {
    for (WorkerLink& worker : workers_) {
      if (!worker.alive) continue;
      (void)worker.transport->send(encode(CoordinatorMsg(QuitMsg{})));
    }
    const Clock::time_point grace_end = Clock::now() + std::chrono::milliseconds(2000);
    for (WorkerLink& worker : workers_) {
      if (!worker.alive) continue;
      if (worker.pid > 0) {
        int status = 0;
        for (;;) {
          const pid_t reaped = ::waitpid(worker.pid, &status, WNOHANG);
          if (reaped == worker.pid || reaped < 0) break;
          if (Clock::now() >= grace_end) {
            ::kill(worker.pid, SIGKILL);
            ::waitpid(worker.pid, &status, 0);
            break;
          }
          // Deadline-bounded poll of waitpid(WNOHANG): the loop's own
          // grace_end caps the total wait, so this nap cannot hang.
          // dls-lint: allow(unbounded-sleep)
          ::usleep(10 * 1000);
        }
      }
      worker.transport->shutdown();
      worker.alive = false;
    }
  }

  void merge() {
    std::ifstream in(journal_path());
    sweep::ScanResult scanned = sweep::scan_records(in);
    sweep::validate_records_for_grid(grid_, scanned.lines);
    // The merged run must cover the grid exactly: validation pins every
    // record to a cell of the grid's backend, and scan_records rejected
    // conflicting duplicates and dropped byte-identical ones, so the
    // records cover it iff there is one per cell.
    if (scanned.lines.size() != grid_.cells()) {
      throw std::runtime_error("coordinate: merged output has " +
                               std::to_string(scanned.lines.size()) + " of the grid's " +
                               std::to_string(grid_.cells()) + " cells");
    }
    const std::vector<std::string> merged = sweep::merge_records({std::move(scanned.lines)});
    sweep::write_lines_atomic(options_.out_path, merged);
    report_.merged_records = merged.size();
  }

  // ---- helpers -----------------------------------------------------

  [[nodiscard]] std::string journal_path() const { return options_.workdir + "/records.jsonl"; }

  void log(LeaseEvent event) {
    event.seq = next_seq_++;
    events_ << encode_lease_event(event) << '\n' << std::flush;
    if (options_.on_event) options_.on_event(event);
  }

  const CoordinatorOptions& options_;
  const bool serving_;
  std::string grid_text_;  ///< spec + backend line: what SPEC ships
  sweep::Grid grid_;
  std::size_t stripes_ = 1;
  std::unique_ptr<net::Listener> listener_;
  std::vector<WorkerLink> workers_;
  std::vector<StripeState> stripe_states_;
  std::unique_ptr<sweep::ShardWriter> journal_;  ///< one record per cell, in arrival order
  std::vector<bool> journaled_;  ///< by cell index: the journal holds its record
  std::ofstream events_;
  std::size_t next_seq_ = 0;
  Clock::time_point last_live_;
  CoordinatorReport report_;
};

}  // namespace

ShippedGrid load_shipped_grid(const std::string& spec_path, const std::string& backend) {
  std::ifstream in(spec_path);
  if (!in) throw std::invalid_argument("cannot open spec " + spec_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ShippedGrid shipped{buffer.str(), {}};
  if (!backend.empty()) shipped.text += "\nbackend " + backend + "\n";
  // Every worker's frame decoder refuses a longer frame, so such a
  // grid could never be distributed, however often it is retried.
  const std::size_t frame = encode(CoordinatorMsg(SpecMsg{shipped.text})).size();
  if (frame > net::kMaxFramePayload) {
    throw std::invalid_argument("spec " + spec_path + " is " + std::to_string(shipped.text.size()) +
                                " bytes, too large to ship: its SPEC frame would be " +
                                std::to_string(frame) + " bytes, over the frame limit of " +
                                std::to_string(net::kMaxFramePayload));
  }
  shipped.grid = sweep::parse_grid(shipped.text);
  return shipped;
}

Coordinator::Coordinator(CoordinatorOptions options) : options_(std::move(options)) {}

CoordinatorReport Coordinator::run() {
  Run run(options_);
  return run.run();
}

}  // namespace dist
