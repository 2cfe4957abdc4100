#include "dist/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
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

/// One supervised worker, local or remote.  Local workers are forked
/// processes behind a net::PipeTransport (pid > 0); remote workers are
/// accepted sockets behind a net::SocketTransport (pid == -1).  The lease
/// logic never looks past `transport`.
struct WorkerLink {
  pid_t pid = -1;
  std::unique_ptr<net::Transport> transport;
  bool alive = false;
  bool hello = false;  ///< handshake done (always true for pipe workers)
  bool ready = false;
  std::size_t lease = npos;  ///< stripe currently held
  Clock::time_point last_msg;
  Clock::time_point last_ping;

  /// In-flight FETCH state: the DONE that triggered it (finalized only
  /// after the stream verifies) and the chunk accumulator.
  bool fetching = false;
  DoneMsg fetch_done;
  std::string fetch_bytes;
  std::size_t fetch_total = 0;
  std::uint64_t fetch_checksum = 0;
};

struct StripeState {
  enum class Status { pending, leased, done };
  Status status = Status::pending;
  std::size_t attempts = 0;  ///< lease attempts granted so far
  std::vector<std::size_t> prior_attempts;  ///< attempts that left a temp file
  Clock::time_point ready_at;               ///< backoff gate for the next lease
  std::size_t holder = npos;
};

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spec " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

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
      if (!worker.alive) continue;
      terminate(worker);
      if (worker.pid > 0) {
        int status = 0;
        ::waitpid(worker.pid, &status, 0);
      }
      worker.alive = false;
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
    // SIGPIPE from a dead worker's stdin must be an EPIPE, not a
    // coordinator death.
    ::signal(SIGPIPE, SIG_IGN);

    spec_text_ = read_file(options_.spec_path);
    grid_text_ = spec_text_;
    if (!options_.backend.empty()) grid_text_ += "\nbackend " + options_.backend + "\n";
    try {
      grid_ = sweep::parse_grid(grid_text_);
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
    const std::string events_path =
        options_.events_path.empty() ? options_.workdir + "/events.jsonl" : options_.events_path;
    events_.open(events_path, std::ios::app);
    if (!events_) throw std::runtime_error("cannot write events log " + events_path);

    stripe_states_.resize(stripes_);
    const Clock::time_point now = Clock::now();
    for (std::size_t s = 0; s < stripes_; ++s) {
      StripeState& stripe = stripe_states_[s];
      stripe.ready_at = now;
      // Coordinator restart: adopt stripes a previous run published,
      // and resume past attempt files a previous run left behind.
      if (stripe_file_complete(s)) {
        stripe.status = StripeState::Status::done;
        report_.adopted += 1;
        log({.kind = "adopt", .stripe = s});
        continue;
      }
      for (std::size_t a = 0; a < options_.max_attempts; ++a) {
        if (::access(stripe_attempt_path(options_.workdir, s, a).c_str(), F_OK) == 0) {
          stripe.prior_attempts.push_back(a);
          stripe.attempts = a + 1;
        }
      }
    }

    if (serving_) {
      listener_ = std::make_unique<net::Listener>(net::parse_host_port(options_.listen));
      if (options_.on_listening) options_.on_listening(listener_->port());
      last_live_ = now;
    }
  }

  void spawn_workers() {
    std::vector<std::string> command = options_.worker_command;
    if (command.empty()) command = {self_exe()};

    for (std::size_t w = 0; w < options_.workers; ++w) {
      std::vector<std::string> argv = command;
      argv.insert(argv.end(), {"work", options_.spec_path, "--dir", options_.workdir});
      argv.insert(argv.end(), {"--threads", std::to_string(options_.worker_threads)});
      argv.insert(argv.end(),
                  {"--heartbeat-ms", std::to_string(options_.heartbeat_interval.count())});
      if (!options_.backend.empty()) argv.insert(argv.end(), {"--backend", options_.backend});
      for (const ChaosKill& kill : options_.chaos) {
        if (kill.worker != w) continue;
        argv.insert(argv.end(), {"--chaos-after", std::to_string(kill.after_cells)});
        argv.insert(argv.end(), {"--chaos-mode", std::string(chaos_mode_name(kill.mode))});
      }

      int to_child[2];    // coordinator writes -> child stdin
      int from_child[2];  // child stdout -> coordinator reads
      if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
        throw std::runtime_error(errno_message("pipe"));
      }

      std::vector<char*> c_argv;
      c_argv.reserve(argv.size() + 1);
      for (std::string& arg : argv) c_argv.push_back(arg.data());
      c_argv.push_back(nullptr);

      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error(errno_message("fork"));
      if (pid == 0) {
        // Child: wire the pipes to stdin/stdout and exec the worker.
        // Only async-signal-safe calls between fork and exec.
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        ::close(to_child[0]);
        ::close(to_child[1]);
        ::close(from_child[0]);
        ::close(from_child[1]);
        ::execv(c_argv[0], c_argv.data());
        ::_exit(127);
      }
      ::close(to_child[0]);
      ::close(from_child[1]);
      // The child ends stay blocking; the coordinator's ends close on
      // exec so later workers don't inherit them (PipeTransport makes
      // the read end nonblocking so one chatty worker cannot stall the
      // loop).
      ::fcntl(to_child[1], F_SETFD, FD_CLOEXEC);
      ::fcntl(from_child[0], F_SETFD, FD_CLOEXEC);

      WorkerLink worker;
      worker.pid = pid;
      worker.transport = std::make_unique<net::PipeTransport>(from_child[0], to_child[1]);
      worker.alive = true;
      worker.hello = true;  // pipes are born trusted -- same machine, same user
      worker.last_msg = Clock::now();
      worker.last_ping = worker.last_msg;
      workers_.push_back(std::move(worker));
      log({.kind = "spawn", .worker = w});
    }
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
          " stripe(s) unfinished (their partial shard files are kept in " + options_.workdir +
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
      WorkerLink worker;
      worker.pid = -1;
      // The write deadline doubles as the half-open guard on sends: a
      // remote worker that stops draining for a whole lease deadline
      // is treated as dead.
      worker.transport = std::make_unique<net::SocketTransport>(
          fd, std::max(options_.lease_deadline, std::chrono::milliseconds(1000)));
      worker.alive = true;
      worker.hello = false;  // must HELLO before anything else
      worker.last_msg = Clock::now();
      worker.last_ping = worker.last_msg;
      workers_.push_back(std::move(worker));
      log({.kind = "spawn", .worker = workers_.size() - 1, .detail = "accept"});
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
    LeaseMsg lease;
    lease.stripe = s;
    lease.stripe_count = stripes_;
    lease.attempt = stripe.attempts;
    lease.resume_attempts = stripe.prior_attempts;
    if (!workers_[w].transport->send(encode(CoordinatorMsg(lease)))) {
      // The link is already broken: the worker is dead but its EOF has
      // not been read yet.  Let the poll loop reap it; the stripe
      // stays pending.  (A socket send can also fail by write
      // deadline -- that link never EOFs, so reap it here.)
      if (workers_[w].pid < 0) {
        terminate(workers_[w]);
        on_worker_death(w, "exit");
      }
      return;
    }
    stripe.status = StripeState::Status::leased;
    stripe.holder = w;
    stripe.attempts += 1;
    workers_[w].lease = s;
    if (stripe.attempts > 1) report_.retries += 1;
    log({.kind = "lease", .worker = w, .stripe = s, .attempt = lease.attempt});
  }

  /// Keepalive probes, both transports, every heartbeat interval.  On
  /// pipes these are belt-and-braces; on sockets they are load-bearing
  /// twice over -- the worker's idle timeout counts on them, and a
  /// half-open link eventually fails the send (caught here or at the
  /// next lease grant).
  void send_pings() {
    const Clock::time_point now = Clock::now();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerLink& worker = workers_[w];
      if (!worker.alive || !worker.hello) continue;
      if (now - worker.last_ping < options_.heartbeat_interval) continue;
      worker.last_ping = now;
      if (!worker.transport->send(encode(CoordinatorMsg(PingMsg{}))) && worker.pid < 0) {
        terminate(worker);
        on_worker_death(w, "exit");
      }
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
      if (worker.hello) next = std::min(next, worker.last_ping + options_.heartbeat_interval);
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
      const bool garbled = !workers_[w].transport->error().empty();
      terminate(workers_[w]);
      on_worker_death(w, garbled ? "protocol" : "exit");
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
      terminate(worker);
      on_worker_death(w, "protocol");
      return;
    }
    if (const auto* hello = std::get_if<HelloMsg>(&msg)) {
      handle_hello(w, *hello);
      return;
    }
    if (!worker.hello) {
      // A socket link must introduce itself before anything else; a
      // client speaking leases without credentials is dropped.
      terminate(worker);
      on_worker_death(w, "protocol");
      return;
    }
    if (std::holds_alternative<ReadyMsg>(msg)) {
      worker.ready = true;
      log({.kind = "ready", .worker = w});
      return;
    }
    if (std::holds_alternative<HeartbeatMsg>(msg)) return;  // liveness already noted
    if (const auto* done = std::get_if<DoneMsg>(&msg)) {
      handle_done(w, *done);
      return;
    }
    if (const auto* data = std::get_if<DataMsg>(&msg)) {
      handle_data(w, *data);
      return;
    }
    const auto& fail = std::get<FailMsg>(msg);
    if (worker.lease == fail.stripe && !worker.fetching) {
      worker.lease = npos;
      reclaim(fail.stripe, w, "fail: " + fail.message);
    }
  }

  void handle_hello(std::size_t w, const HelloMsg& hello) {
    WorkerLink& worker = workers_[w];
    if (worker.hello) {  // double HELLO, or HELLO on a pipe link
      terminate(worker);
      on_worker_death(w, "protocol");
      return;
    }
    if (hello.version != kProtocolVersion) {
      terminate(worker);
      on_worker_death(w, "version");
      return;
    }
    if (!options_.token.empty() && hello.token != options_.token) {
      terminate(worker);
      on_worker_death(w, "auth");
      return;
    }
    worker.hello = true;
    log({.kind = "hello", .worker = w});
    // The worker has no filesystem path to the spec: ship it.
    if (!worker.transport->send(encode(CoordinatorMsg(SpecMsg{grid_text_})))) {
      terminate(worker);
      on_worker_death(w, "exit");
    }
  }

  void handle_done(std::size_t w, const DoneMsg& done) {
    WorkerLink& worker = workers_[w];
    if (worker.lease != done.stripe || worker.fetching ||
        stripe_states_[done.stripe].status != StripeState::Status::leased ||
        stripe_states_[done.stripe].holder != w) {
      return;  // stale message for a lease already reclaimed
    }
    if (worker.pid < 0) {
      // Remote worker: the published stripe lives on ITS disk.  Start
      // the fetch; the lease stays held until the stream verifies, so
      // a death mid-transfer reclaims the stripe automatically.
      worker.fetching = true;
      worker.fetch_done = done;
      worker.fetch_bytes.clear();
      worker.fetch_total = 0;
      worker.fetch_checksum = 0;
      log({.kind = "fetch", .worker = w, .stripe = done.stripe, .attempt = done.attempt});
      if (!worker.transport->send(
              encode(CoordinatorMsg(FetchMsg{done.stripe, done.attempt})))) {
        terminate(worker);
        on_worker_death(w, "exit");
      }
      return;
    }
    worker.lease = npos;
    StripeState& stripe = stripe_states_[done.stripe];
    // Trust but verify: DONE means "published", so the stripe file
    // must exist and cover every owned cell.
    if (!stripe_file_complete(done.stripe)) {
      reclaim(done.stripe, w, "invalid");
      return;
    }
    stripe.status = StripeState::Status::done;
    stripe.holder = npos;
    report_.computed += done.computed;
    log({.kind = "done", .worker = w, .stripe = done.stripe, .attempt = done.attempt});
  }

  void handle_data(std::size_t w, const DataMsg& data) {
    WorkerLink& worker = workers_[w];
    if (!worker.fetching || data.stripe != worker.fetch_done.stripe ||
        data.attempt != worker.fetch_done.attempt || data.offset != worker.fetch_bytes.size() ||
        (!worker.fetch_bytes.empty() && (data.total != worker.fetch_total ||
                                         data.checksum != worker.fetch_checksum))) {
      // Out-of-order, unsolicited, or self-inconsistent stream: this
      // peer cannot be trusted with the data path.
      terminate(worker);
      on_worker_death(w, "protocol");
      return;
    }
    worker.fetch_total = data.total;
    worker.fetch_checksum = data.checksum;
    worker.fetch_bytes += data.bytes;
    if (worker.fetch_bytes.size() < worker.fetch_total) return;  // more chunks coming
    finish_fetch(w);
  }

  /// All chunks arrived: verify length + checksum + record validity +
  /// stripe coverage, then commit atomically.  Any mismatch is a
  /// protocol death -- the stripe is still leased, so it reclaims and
  /// retries elsewhere.
  void finish_fetch(std::size_t w) {
    WorkerLink& worker = workers_[w];
    const std::size_t s = worker.fetch_done.stripe;
    worker.fetching = false;
    if (worker.fetch_bytes.size() != worker.fetch_total ||
        net::fnv1a64(worker.fetch_bytes) != worker.fetch_checksum) {
      terminate(worker);
      on_worker_death(w, "protocol");
      return;
    }
    std::vector<std::string> lines;
    try {
      std::istringstream in(worker.fetch_bytes);
      const sweep::ScanResult scanned = sweep::scan_records(in);
      if (scanned.dropped_partial_tail) throw std::runtime_error("torn final record");
      sweep::validate_records_for_grid(grid_, scanned.lines);
      if (!records_cover_stripe(scanned, s)) throw std::runtime_error("incomplete stripe");
      lines = scanned.lines;
    } catch (const std::exception&) {
      terminate(worker);
      on_worker_death(w, "protocol");
      return;
    }
    sweep::write_lines_atomic(stripe_final_path(options_.workdir, s), lines);
    worker.fetch_bytes.clear();
    worker.lease = npos;
    StripeState& stripe = stripe_states_[s];
    stripe.status = StripeState::Status::done;
    stripe.holder = npos;
    report_.computed += worker.fetch_done.computed;
    report_.fetched += 1;
    log({.kind = "done",
         .worker = w,
         .stripe = s,
         .attempt = worker.fetch_done.attempt,
         .detail = "fetched"});
  }

  /// SIGKILL a local worker, hang up on a remote one.  The matching
  /// waitpid (locals only) happens in on_worker_death.
  void terminate(WorkerLink& worker) {
    if (worker.pid > 0) ::kill(worker.pid, SIGKILL);
    worker.transport->shutdown();
  }

  void on_worker_death(std::size_t w, const std::string& reason) {
    WorkerLink& worker = workers_[w];
    if (!worker.alive) return;
    worker.alive = false;
    worker.transport->shutdown();
    if (worker.pid > 0) {
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
    }
    report_.workers_lost += 1;
    worker.fetching = false;
    worker.fetch_bytes.clear();
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

  /// Take back a lease whose holder died or failed: adopt the stripe
  /// if the dead worker already published it (locals only -- remote
  /// publishes live on remote disks), otherwise keep its partial
  /// attempt file as a resume source and schedule a retry behind
  /// capped exponential backoff.
  void reclaim(std::size_t s, std::size_t w, const std::string& reason) {
    StripeState& stripe = stripe_states_[s];
    const std::size_t attempt = stripe.attempts == 0 ? 0 : stripe.attempts - 1;
    stripe.holder = npos;
    report_.reclaims += 1;
    log({.kind = "reclaim", .worker = w, .stripe = s, .attempt = attempt, .detail = reason});

    if (stripe_file_complete(s)) {
      // Death between the atomic publish and the DONE message: the
      // work is all there -- adopt it, never recompute.
      stripe.status = StripeState::Status::done;
      report_.adopted += 1;
      log({.kind = "adopt", .worker = w, .stripe = s, .attempt = attempt});
      return;
    }
    if (::access(stripe_attempt_path(options_.workdir, s, attempt).c_str(), F_OK) == 0 &&
        std::find(stripe.prior_attempts.begin(), stripe.prior_attempts.end(), attempt) ==
            stripe.prior_attempts.end()) {
      stripe.prior_attempts.push_back(attempt);
    }
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
    const Clock::time_point now = Clock::now();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerLink& worker = workers_[w];
      if (!worker.alive || now - worker.last_msg < options_.lease_deadline) continue;
      // Silent past the deadline: hung, not merely slow (heartbeats
      // flow from a dedicated thread even during long cells).  An
      // accepted link that never even said HELLO gets its own label --
      // that is a port-scanner or a wedged client, not a lost worker.
      terminate(worker);
      on_worker_death(w, worker.hello ? "deadline" : "hello-timeout");
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
    // Every stripe file, plus every surviving partial-attempt file:
    // feeding the partials through merge_records is the
    // attempt-consistency check -- a reclaimed stripe whose retry
    // produced different bytes for an already-flushed record fails the
    // merge instead of shipping silently corrupted science.
    std::vector<std::vector<std::string>> shards;
    for (std::size_t s = 0; s < stripes_; ++s) {
      std::ifstream in(stripe_final_path(options_.workdir, s));
      if (!in) throw std::runtime_error("coordinate: stripe file missing for stripe " +
                                        std::to_string(s));
      const sweep::ScanResult scanned = sweep::scan_records(in);
      sweep::validate_records_for_grid(grid_, scanned.lines);
      shards.push_back(scanned.lines);
      for (const std::size_t attempt : stripe_states_[s].prior_attempts) {
        std::ifstream partial(stripe_attempt_path(options_.workdir, s, attempt));
        if (!partial) continue;
        const sweep::ScanResult partial_scan = sweep::scan_records(partial);
        sweep::validate_records_for_grid(grid_, partial_scan.lines);
        shards.push_back(partial_scan.lines);
      }
    }
    std::vector<std::string> merged;
    try {
      merged = sweep::merge_records(shards);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("coordinate: merge failed -- a retried stripe did "
                                           "not reproduce its first attempt's bytes? ") +
                               e.what());
    }

    // The merged run must cover the grid exactly: one record per
    // (cell, backend), none missing, none duplicated (merge_records
    // already collapsed byte-identical duplicates).
    std::set<sweep::RecordKey> keys;
    for (const std::string& line : merged) {
      if (const auto key = sweep::record_key(line)) keys.insert(*key);
    }
    const std::size_t backends = grid_.backend_count();
    for (std::size_t index = 0; index < grid_.cells(); ++index) {
      const sweep::RecordKey key{index / backends,
                                 std::string(sweep::cell_backend(grid_, index))};
      if (!keys.contains(key)) {
        throw std::runtime_error("coordinate: merged output is missing cell " +
                                 std::to_string(key.cell) + " (backend " + key.backend + ")");
      }
    }

    sweep::write_lines_atomic(options_.out_path, merged);
    report_.merged_records = merged.size();
  }

  // ---- helpers -----------------------------------------------------

  [[nodiscard]] bool records_cover_stripe(const sweep::ScanResult& scanned, std::size_t s) const {
    bool complete = true;
    const std::size_t backends = grid_.backend_count();
    sweep::for_each_owned_index(grid_, s, stripes_, [&](std::size_t index) {
      const sweep::RecordKey key{index / backends,
                                 std::string(sweep::cell_backend(grid_, index))};
      complete = scanned.done.contains(key);
      return complete;
    });
    return complete;
  }

  [[nodiscard]] bool stripe_file_complete(std::size_t s) {
    std::ifstream in(stripe_final_path(options_.workdir, s));
    if (!in) return false;
    sweep::ScanResult scanned;
    try {
      scanned = sweep::scan_records(in);
      sweep::validate_records_for_grid(grid_, scanned.lines);
    } catch (const std::exception&) {
      return false;  // not adoptable; a retry will republish it
    }
    return records_cover_stripe(scanned, s);
  }

  void log(LeaseEvent event) {
    event.seq = next_seq_++;
    events_ << encode_lease_event(event) << '\n' << std::flush;
    if (options_.on_event) options_.on_event(event);
  }

  const CoordinatorOptions& options_;
  const bool serving_;
  std::string spec_text_;
  std::string grid_text_;  ///< spec + backend line: what SPEC ships
  sweep::Grid grid_;
  std::size_t stripes_ = 1;
  std::unique_ptr<net::Listener> listener_;
  std::vector<WorkerLink> workers_;
  std::vector<StripeState> stripe_states_;
  std::ofstream events_;
  std::size_t next_seq_ = 0;
  Clock::time_point last_live_;
  CoordinatorReport report_;
};

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options) : options_(std::move(options)) {}

CoordinatorReport Coordinator::run() {
  Run run(options_);
  return run.run();
}

}  // namespace dist
