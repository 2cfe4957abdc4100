#include "mw/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dls/technique.hpp"
#include "simx/actor_state.hpp"
#include "simx/event_queue.hpp"
#include "support/small_vector.hpp"
#include "workload/random_source.hpp"

namespace mw {
namespace {

using simx::ActorState;
using simx::SimTime;

constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();

/// Work request; doubles as the completion report for the worker's
/// previous chunk (a worker only asks again once it has finished), and
/// as the fail-stop announcement when `failed` is set.
struct WorkRequest {
  std::size_t done_size = 0;      ///< tasks in the completed chunk (0 on first request)
  double done_exec_time = 0.0;    ///< measured execution time of that chunk
  bool failed = false;            ///< fail-stop announcement
  std::size_t failed_size = 0;    ///< outstanding (lost) tasks being returned
};

/// Chunk assignment; count == 0 is the finalization message.
struct WorkReply {
  double work_seconds = 0.0;  ///< aggregate nominal execution time
  std::size_t count = 0;
};

/// A contiguous range of unassigned task indices.  The master serves
/// chunks from a free-list of such ranges so that ranges reclaimed from
/// failed workers can be re-scheduled.
struct TaskRange {
  std::size_t first = 0;
  std::size_t count = 0;
};

/// The sub-ranges of one worker's most recent chunk.  Chunks span a
/// single range except after failures fragment the free list, so two
/// inline slots make the common case allocation-free.
using RangeList = support::SmallVector<TaskRange, 2>;

/// Master-side free-list bookkeeping shared by the serve path.
class TaskPool {
 public:
  void reset(std::size_t n) {
    ranges_.clear();
    head_ = 0;
    ranges_.push_back(TaskRange{0, n});
  }
  void give_back(TaskRange range) { ranges_.push_back(range); }

  /// Take `count` tasks from the front of the free list (possibly
  /// spanning reclaimed fragments); their nominal seconds come from the
  /// prefix-sum index, so the cost is O(#ranges touched) rather than
  /// O(chunk size).  The exact sub-ranges taken are appended to `taken`
  /// (cleared first), so a failed chunk can be given back precisely.
  void take(std::size_t count, const std::vector<double>& prefix, double& seconds,
            RangeList& taken) {
    taken.clear();
    seconds = 0.0;
    std::size_t need = count;
    while (need > 0) {
      if (head_ == ranges_.size()) throw std::logic_error("TaskPool: free-list underflow");
      TaskRange& front = ranges_[head_];
      const std::size_t take_now = std::min(front.count, need);
      seconds += prefix[front.first + take_now] - prefix[front.first];
      taken.push_back(TaskRange{front.first, take_now});
      front.first += take_now;
      front.count -= take_now;
      need -= take_now;
      if (front.count == 0 && ++head_ == ranges_.size()) {
        ranges_.clear();  // compact when drained; capacity is kept
        head_ = 0;
      }
    }
  }

 private:
  // FIFO of free ranges: consumed at head_, reclaimed fragments
  // appended at the back and reused in arrival order without
  // re-scanning the list.
  std::vector<TaskRange> ranges_;
  std::size_t head_ = 0;
};

/// Reusable FIFO of worker indices (bounded by p).
class IndexQueue {
 public:
  void clear() {
    items_.clear();
    head_ = 0;
  }
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  void push(std::size_t v) { items_.push_back(v); }
  std::size_t pop() {
    const std::size_t v = items_[head_++];
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
    return v;
  }

 private:
  std::vector<std::size_t> items_;
  std::size_t head_ = 0;
};

/// One worker actor as plain data: where its program stands, its time
/// accounting, and the one message in flight to or from it (a worker
/// and the master strictly alternate, so there is never a second).
struct Worker {
  simx::ActorClock clock;
  double speed = 0.0;  ///< host_speed * its factor [flops/s]
  /// Its entry of the run's Config::worker_speed_profiles, which
  /// overrides `speed`; null when the Config has no profiles.
  const simx::SpeedProfile* profile = nullptr;
  SimTime failure_time = kNever;
  /// Start of the communicating phase of the blocking send in progress
  /// (the chunk's finish time for the fused execute + request), or
  /// kNever when the whole send is communicating.
  SimTime comm_from = kNever;
  WorkRequest request;
  WorkReply reply;
  bool waiting = false;      ///< blocked on its reply
  bool reply_ready = false;  ///< reply delivered, not yet received
  bool leaving = false;      ///< the request in flight announces its fail-stop
  bool failed = false;       ///< the master received its fail-stop announcement
  bool finalized = false;
  std::size_t tasks = 0;
  std::size_t chunks = 0;
  RangeList last_served;

  /// Ready for a new run; keeps last_served's capacity.
  void reset(double at_speed, const simx::SpeedProfile* follows, SimTime fails_at) {
    RangeList served = std::move(last_served);
    served.clear();
    *this = Worker{};
    last_served = std::move(served);
    speed = at_speed;
    profile = follows;
    failure_time = fails_at;
  }
};

}  // namespace

/// All reusable run state.  Vectors are assign()ed/clear()ed per run so
/// their capacity survives.
struct RunContext::Impl {
  simx::CalendarQueue events;
  std::vector<Worker> workers;

  // Serve-loop buffers.
  std::vector<double> prefix;  ///< prefix[i] = sum of the step's first i task times
  TaskPool pool;
  IndexQueue requests;  ///< delivered requests the master has not received yet
  IndexQueue to_serve;
  std::vector<std::size_t> parked;
  std::vector<ChunkLogEntry> chunk_log;
  std::vector<ServedRangeEntry> range_log;
};

RunContext::RunContext() : impl_(std::make_unique<Impl>()) {}
RunContext::~RunContext() = default;

namespace {

/// What an event does when it fires.  The master's replies and a
/// worker's requests are blocking sends: the sender resumes when its
/// message arrives, on the same event, after the delivery.  A send
/// whose delay rounds to zero against the clock does not block, and
/// its delivery is an event of its own.
enum EventKind : std::uint64_t {
  kRequestArrival,   ///< deliver worker w's request, then resume w
  kReplyArrival,     ///< deliver the master's reply to w, then resume the master
  kFailWake,         ///< worker w reaches its fail-stop time inside a chunk
  kRequestDelivery,  ///< deliver worker w's request
  kReplyDelivery,    ///< deliver the master's reply to w
};
constexpr unsigned kKindBits = 3;
constexpr std::uint64_t kKindMask = (std::uint64_t{1} << kKindBits) - 1;
/// master_run's "no request to receive first".
constexpr std::size_t kNoRequest = std::numeric_limits<std::size_t>::max();

/// The paper's Figure 1 master-worker model as an explicit event loop.
///
/// Workers loop request -> receive -> execute until finalized ("When it
/// finishes, it sends again a work request message to the master",
/// paper Section II); a worker whose fail-stop time arrives announces
/// the failure together with its unfinished chunk and stops.  The
/// master serves chunk requests with the DLS technique, re-schedules
/// chunks reclaimed from failed workers, and distributes finalization
/// messages at the end.  A worker whose request arrives when the
/// current step has no unscheduled tasks left is "parked": it is served
/// at the start of the next time step, or finalized after the last.
///
/// Each actor is plain data whose program counter is its state.  Every
/// state transition, accrual instant and event push happens in the
/// order of the sequential actor program it replaces (deliver first,
/// then resume the sender; a resumed actor runs until it blocks), so
/// the (time, seq) order -- and with it every result bit -- follows
/// from the program alone.
class Loop {
 public:
  Loop(const Config& cfg, dls::Technique& tech, workload::RandomSource& rng,
       RunContext::Impl& buf)
      : cfg_(cfg), tech_(tech), rng_(rng), buf_(buf), workers_(buf.workers),
        request_delay_(message_delay(cfg, cfg.request_bytes)),
        reply_delay_(message_delay(cfg, cfg.reply_bytes)), alive_(buf.workers.size()) {}

  /// Run to completion; returns the makespan.  The master starts first,
  /// then the workers in index order, each sending its first request.
  SimTime run() {
    begin_step();
    master_run(kNoRequest);
    for (std::size_t w = 0; w < workers_.size(); ++w) worker_send(w);
    simx::CalendarQueue& events = buf_.events;
    while (!events.empty()) {
      const simx::Event ev = events.pop();
      now_ = ev.time;
      const std::size_t w = ev.tag >> kKindBits;
      switch (ev.tag & kKindMask) {
        case kRequestArrival:
          deliver_request(w);
          worker_resume(w);
          break;
        case kReplyArrival:
          deliver_reply(w);
          master_resume();
          break;
        case kFailWake:
          resumed(workers_[w].clock, kNever);
          worker_send(w);
          break;
        case kRequestDelivery:
          deliver_request(w);
          break;
        case kReplyDelivery:
          deliver_reply(w);
          break;
      }
    }
    // An actor that threw stopped there while the others ran on; the
    // first by actor index (master first) is the run's error.
    if (master_error_) std::rethrow_exception(master_error_);
    if (worker_error_) std::rethrow_exception(worker_error_);
    if (!finished(master_)) throw deadlock("master");
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!finished(workers_[w].clock)) throw deadlock("worker" + std::to_string(w));
    }
    return now_;
  }

  [[nodiscard]] double master_busy_time() const {
    return master_.time_in(ActorState::kComputing);
  }
  [[nodiscard]] double total_nominal_work() const { return total_nominal_work_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }
  [[nodiscard]] std::size_t tasks_reclaimed() const { return tasks_reclaimed_; }

 private:
  /// Where the master's program stands; it has ended once its clock is
  /// kDone (no event resumes it after that).
  enum class Phase { kServe, kFinalizeParked, kFinalizeDrain };

  static std::runtime_error deadlock(const std::string& actor) {
    return std::runtime_error("simulation deadlock: actor '" + actor + "' never finished");
  }

  /// The loop's one push site, kept out of line so the queue's inlined
  /// push exists once.
  [[gnu::noinline]] void push(SimTime at, EventKind kind, std::size_t worker) {
    buf_.events.push(simx::Event{at, seq_++, (std::uint64_t{worker} << kKindBits) | kind});
  }

  /// An actor blocked since its last transition resumes now.  With
  /// comm_from before now, the part of the wait from comm_from on was a
  /// blocking send's communicating phase.
  ///
  /// A resumed actor runs on and makes its next transition at this same
  /// instant, so it never enters kReady: the time up to now is charged
  /// to the state it leaves then, the very addend a zero-length kReady
  /// stay would have passed on (and kReady's own sum is never read).
  void resumed(simx::ActorClock& clock, SimTime comm_from) const {
    if (comm_from < now_) clock.set_state(ActorState::kCommunicating, comm_from);
  }

  /// An actor ends by entering kDone, so its clock's last transition
  /// is its finish time.
  void finish(simx::ActorClock& clock) const { clock.set_state(ActorState::kDone, now_); }
  static bool finished(const simx::ActorClock& clock) {
    return clock.state == ActorState::kDone;
  }

  // ------------------------------------------------------------ worker

  /// Send workers_[w].request: blocking for the request delay, then on
  /// to the reply wait (or, for a fail-stop announcement, to the end).
  void worker_send(std::size_t w) {
    Worker& wk = workers_[w];
    const SimTime at = now_ + request_delay_;
    if (at <= now_) {
      push(at, kRequestDelivery, w);
      after_send(w);
      return;
    }
    wk.clock.set_state(ActorState::kCommunicating, now_);
    wk.comm_from = kNever;
    push(at, kRequestArrival, w);
  }

  void worker_resume(std::size_t w) {
    Worker& wk = workers_[w];
    resumed(wk.clock, wk.comm_from);
    after_send(w);
  }

  void after_send(std::size_t w) {
    Worker& wk = workers_[w];
    if (wk.leaving) {
      finish(wk.clock);
    } else if (wk.reply_ready) {
      wk.reply_ready = false;
      worker_chunk(w);
    } else {
      wk.clock.set_state(ActorState::kWaitingRecv, now_);
      wk.waiting = true;
    }
  }

  void deliver_reply(std::size_t w) {
    Worker& wk = workers_[w];
    if (!wk.waiting) {
      wk.reply_ready = true;
      return;
    }
    wk.waiting = false;
    worker_chunk(w);
  }

  /// The worker holds a reply: execute the chunk and ask again, or stop.
  void worker_chunk(std::size_t w) {
    Worker& wk = workers_[w];
    try {
      const WorkReply reply = wk.reply;
      if (reply.count == 0) {
        finish(wk.clock);
        return;
      }
      // Nominal seconds are defined against the reference speed; the
      // worker's own (possibly slower/faster, possibly time-varying) speed
      // determines the actual duration.
      const double flops = reply.work_seconds * cfg_.host_speed;
      const SimTime t0 = now_;
      if (t0 >= wk.failure_time) {
        // Died while waiting: the whole chunk is lost.  Announce and stop.
        announce_failure(w, reply.count);
        return;
      }
      SimTime finish_at = kNever;
      try {
        finish_at = wk.profile != nullptr ? simx::finish_time(*wk.profile, t0, flops)
                                          : simx::finish_time(wk.speed, t0, flops);
      } catch (const std::runtime_error& e) {
        // The worker's remaining capacity is zero forever.  With a
        // finite fail-stop time the chunk is simply lost at that instant
        // (the failure lands inside the stopped window); without one the
        // configuration really is unrunnable.
        if (wk.failure_time == kNever) {
          throw std::runtime_error("worker" + std::to_string(w) + ": " + e.what());
        }
      }
      if (finish_at > wk.failure_time) {
        // Dies mid-chunk: burn until the failure instant (the partial
        // results are lost -- fail-stop), then announce and stop.
        const SimTime wake = now_ + (wk.failure_time - t0);
        if (wake <= now_) {
          announce_failure(w, reply.count);
          return;
        }
        wk.request = WorkRequest{0, 0.0, true, reply.count};
        wk.leaving = true;
        wk.clock.set_state(ActorState::kComputing, now_);
        push(wake, kFailWake, w);
        return;
      }
      // Execute, then the next request as a blocking send, on one
      // event: computing until finish_at, communicating from there to
      // the request's arrival.
      wk.request = WorkRequest{reply.count, finish_at - t0, false, 0};
      const SimTime at = finish_at + request_delay_;
      if (at <= now_) {
        push(now_, kRequestDelivery, w);
        after_send(w);
        return;
      }
      wk.clock.set_state(ActorState::kComputing, now_);
      wk.comm_from = finish_at;
      push(at, kRequestArrival, w);
    } catch (...) {
      if (!worker_error_ || w < worker_error_index_) {
        worker_error_ = std::current_exception();
        worker_error_index_ = w;
      }
      finish(wk.clock);
    }
  }

  void announce_failure(std::size_t w, std::size_t lost) {
    workers_[w].request = WorkRequest{0, 0.0, true, lost};
    workers_[w].leaving = true;
    worker_send(w);
  }

  // ------------------------------------------------------------ master

  /// A busy master queues the request (first in, first out); a waiting
  /// one has none queued and receives it at once.
  void deliver_request(std::size_t w) {
    if (!master_waiting_) {
      buf_.requests.push(w);
      return;
    }
    master_waiting_ = false;
    master_run(w);
  }

  void master_resume() {
    resumed(master_, master_comm_from_);
    master_run(kNoRequest);
  }

  /// Run the master until it blocks or ends, receiving worker
  /// `received`'s request first unless it is kNoRequest.
  void master_run(std::size_t received) {
    try {
      if (received != kNoRequest && !receive(received)) return;
      while (master_step()) {
      }
    } catch (...) {
      master_error_ = std::current_exception();
      finish(master_);
    }
  }

  /// One step of the master's program; false once it blocks or ends.
  bool master_step() {
    std::vector<std::size_t>& parked = buf_.parked;
    switch (phase_) {
      case Phase::kServe:
        if (completed_tasks_ >= cfg_.tasks) {
          if (++step_ < cfg_.timesteps) {
            begin_step();
          } else {
            // All tasks of all steps completed: finalize the parked
            // workers and drain the final request of every other live
            // worker ("On completion of all tasks, the master sends
            // finalization messages").
            phase_ = Phase::kFinalizeParked;
          }
          return true;
        }
        if (!buf_.to_serve.empty()) return !serve(buf_.to_serve.pop());
        if (buf_.requests.empty()) return wait();
        return on_step_request(buf_.requests.pop());
      case Phase::kFinalizeParked:
        if (next_parked_ == parked.size()) {
          phase_ = Phase::kFinalizeDrain;
          return true;
        }
        return !finalize(parked[next_parked_++]);
      case Phase::kFinalizeDrain:
        if (finalized_count_ >= alive_) {
          finish(master_);
          return false;
        }
        if (buf_.requests.empty()) return wait();
        return on_drain_request(buf_.requests.pop());
    }
    return false;
  }

  /// Receive worker w's request; false once the master blocks or ends.
  /// The master waits only in kServe and kFinalizeDrain, and wakes to
  /// exactly the step master_step would take next, so a waiting master
  /// receives a request here directly.
  bool receive(std::size_t w) {
    return phase_ == Phase::kServe ? on_step_request(w) : on_drain_request(w);
  }

  bool wait() {
    master_.set_state(ActorState::kWaitingRecv, now_);
    master_waiting_ = true;
    return false;
  }

  void begin_step() {
    if (step_ > 0) tech_.start_new_timestep();
    rebuild_prefix();
    buf_.pool.reset(cfg_.tasks);
    completed_tasks_ = 0;
    buf_.to_serve.clear();
    for (const std::size_t worker : buf_.parked) buf_.to_serve.push(worker);
    buf_.parked.clear();
  }

  bool on_step_request(std::size_t w) {
    Worker& wk = workers_[w];
    const WorkRequest& request = wk.request;
    if (request.failed) {
      // Fail-stop: reclaim the outstanding chunk and re-schedule it.
      wk.failed = true;
      --alive_;
      if (request.failed_size > 0) {
        // Give the worker's outstanding chunk back to the pool and to
        // the technique's unscheduled count; the surviving workers will
        // be handed those tasks again.
        tech_.reclaim(request.failed_size);
        for (const TaskRange& r : wk.last_served) buf_.pool.give_back(r);
        wk.tasks -= request.failed_size;
        tasks_reclaimed_ += request.failed_size;
        // Workers parked after seeing remaining() == 0 must come back
        // for the reclaimed tasks, or the step deadlocks when the
        // failed worker held the only outstanding chunk.
        for (const std::size_t worker : buf_.parked) buf_.to_serve.push(worker);
        buf_.parked.clear();
      }
      if (alive_ == 0) {
        throw std::runtime_error("all workers failed with " +
                                 std::to_string(cfg_.tasks - completed_tasks_) +
                                 " tasks incomplete in step " + std::to_string(step_));
      }
      return true;
    }
    if (request.done_size > 0) {
      completed_tasks_ += request.done_size;
      tech_.on_chunk_complete(
          dls::ChunkFeedback{w, request.done_size, request.done_exec_time, now_});
    }
    if (completed_tasks_ >= cfg_.tasks || tech_.remaining() == 0) {
      buf_.parked.push_back(w);  // the step ends once all tasks are confirmed
      return true;
    }
    return !serve(w);
  }

  bool on_drain_request(std::size_t w) {
    const WorkRequest& request = workers_[w].request;
    if (request.failed) {
      // A failure announced after its last completion: nothing to
      // reclaim (all tasks are done), the worker just leaves.
      workers_[w].failed = true;
      --alive_;
      return true;
    }
    if (request.done_size > 0) {
      tech_.on_chunk_complete(
          dls::ChunkFeedback{w, request.done_size, request.done_exec_time, now_});
    }
    if (workers_[w].finalized) {
      throw std::logic_error("worker " + std::to_string(w) + " requested after finalization");
    }
    return !finalize(w);
  }

  /// Serve worker w a chunk; true if the master blocks on the reply.
  bool serve(std::size_t w) {
    if (tech_.remaining() == 0) {  // an earlier serve may have taken the rest
      buf_.parked.push_back(w);
      return false;
    }
    // The scheduling-overhead window [now, issue_at) is charged as
    // master computing time by the reply send below.
    const SimTime issue_at =
        (cfg_.overhead_mode == OverheadMode::kSimulated && cfg_.params.h > 0.0)
            ? now_ + cfg_.params.h
            : now_;
    const std::size_t chunk = tech_.next_chunk(dls::Request{w, issue_at});
    Worker& wk = workers_[w];
    double seconds = 0.0;
    buf_.pool.take(chunk, buf_.prefix, seconds, wk.last_served);
    const std::size_t log_first = wk.last_served.front().first;
    ++chunk_count_;
    ++wk.chunks;
    wk.tasks += chunk;
    if (cfg_.record_chunk_log) {
      for (const TaskRange& r : wk.last_served) {
        buf_.range_log.push_back(ServedRangeEntry{buf_.chunk_log.size(), r.first, r.count});
      }
      buf_.chunk_log.push_back(ChunkLogEntry{w, log_first, chunk, issue_at, seconds});
    }
    wk.reply = WorkReply{seconds, chunk};
    // Overhead compute, then the reply as a blocking send, on one event.
    const SimTime at = issue_at + reply_delay_;
    if (at <= now_) {
      push(now_, kReplyDelivery, w);
      return false;
    }
    master_.set_state(ActorState::kComputing, now_);
    master_comm_from_ = issue_at;
    push(at, kReplyArrival, w);
    return true;
  }

  /// Send worker w its finalization; true if the master blocks on it.
  bool finalize(std::size_t w) {
    Worker& wk = workers_[w];
    wk.finalized = true;
    ++finalized_count_;
    wk.reply = WorkReply{};
    const SimTime at = now_ + reply_delay_;
    if (at <= now_) {
      push(at, kReplyDelivery, w);
      return false;
    }
    master_.set_state(ActorState::kCommunicating, now_);
    master_comm_from_ = kNever;
    push(at, kReplyArrival, w);
    return true;
  }

  /// Draw the step's task times into prefix[1..n] and scan them in
  /// place into the prefix-sum index, extending the running
  /// total-nominal-work accumulator (kept as its own left-to-right sum
  /// so the reported total is independent of how chunks later
  /// partition the step).
  void rebuild_prefix() {
    std::vector<double>& prefix = buf_.prefix;
    prefix.resize(cfg_.tasks + 1);
    prefix[0] = 0.0;
    cfg_.workload->generate_into(std::span<double>(prefix).subspan(1), rng_);
    double total = total_nominal_work_;
    double run = 0.0;
    for (std::size_t i = 1; i < prefix.size(); ++i) {
      total += prefix[i];
      run += prefix[i];
      prefix[i] = run;
    }
    total_nominal_work_ = total;
  }

  const Config& cfg_;
  dls::Technique& tech_;
  workload::RandomSource& rng_;
  RunContext::Impl& buf_;
  std::vector<Worker>& workers_;
  /// Every worker's link of the star is the same, so each direction
  /// costs one delay for the whole run.
  const SimTime request_delay_;  ///< worker -> master
  const SimTime reply_delay_;    ///< master -> worker

  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;

  simx::ActorClock master_;
  Phase phase_ = Phase::kServe;
  bool master_waiting_ = false;
  /// Start of the communicating phase of the master's blocking send.
  SimTime master_comm_from_ = kNever;
  std::size_t step_ = 0;
  std::size_t completed_tasks_ = 0;  ///< completed in this step
  std::size_t alive_;
  std::size_t next_parked_ = 0;
  std::size_t finalized_count_ = 0;

  std::exception_ptr master_error_;
  std::exception_ptr worker_error_;  ///< the lowest-indexed worker's
  std::size_t worker_error_index_ = 0;

  double total_nominal_work_ = 0.0;
  std::size_t chunk_count_ = 0;
  std::size_t tasks_reclaimed_ = 0;
};

bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }

void validate(const Config& cfg) {
  if (cfg.workers == 0) throw std::invalid_argument("Config.workers must be >= 1");
  if (cfg.tasks == 0) throw std::invalid_argument("Config.tasks must be >= 1");
  if (cfg.timesteps == 0) throw std::invalid_argument("Config.timesteps must be >= 1");
  if (!cfg.workload) throw std::invalid_argument("Config.workload is not set");
  if (cfg.overhead_mode == OverheadMode::kInline) {
    throw std::invalid_argument("inline overhead is the hagerup simulator's accounting");
  }
  if (!positive_finite(cfg.host_speed)) {
    throw std::invalid_argument("Config.host_speed must be finite and > 0");
  }
  if (!cfg.worker_speed_factors.empty() && cfg.worker_speed_factors.size() != cfg.workers) {
    throw std::invalid_argument("Config.worker_speed_factors size must equal workers");
  }
  for (double f : cfg.worker_speed_factors) {
    if (!(f > 0.0) || !positive_finite(cfg.host_speed * f)) {
      throw std::invalid_argument("worker speeds (host_speed * factor) must be finite and > 0");
    }
  }
  if (!cfg.worker_speed_profiles.empty() && cfg.worker_speed_profiles.size() != cfg.workers) {
    throw std::invalid_argument("Config.worker_speed_profiles size must equal workers");
  }
  for (const simx::SpeedProfile& profile : cfg.worker_speed_profiles) profile.validate();
  if (!cfg.worker_failure_times.empty() && cfg.worker_failure_times.size() != cfg.workers) {
    throw std::invalid_argument("Config.worker_failure_times size must equal workers");
  }
  for (double t : cfg.worker_failure_times) {
    if (!(t >= 0.0)) throw std::invalid_argument("worker failure times must be >= 0");
  }
  if (!(cfg.latency >= 0.0) || !std::isfinite(cfg.latency)) {
    throw std::invalid_argument("Config.latency must be finite and >= 0");
  }
  // +inf is legal: messages then cost only the latency.
  if (!(cfg.bandwidth > 0.0)) throw std::invalid_argument("Config.bandwidth must be > 0");
}

}  // namespace

RunResult run_simulation(const Config& config, RunContext& context) {
  validate(config);
  RunContext::Impl& buf = *context.impl_;
  const std::size_t p = config.workers;

  buf.workers.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    buf.workers[i].reset(
        config.worker_speed_factors.empty() ? config.host_speed
                                            : config.host_speed * config.worker_speed_factors[i],
        config.worker_speed_profiles.empty() ? nullptr : &config.worker_speed_profiles[i],
        config.worker_failure_times.empty() ? kNever : config.worker_failure_times[i]);
  }

  dls::Params params = config.params;
  params.p = p;
  params.n = config.tasks;
  const auto technique = dls::make_technique(config.technique, params);

  const std::unique_ptr<workload::RandomSource> rng =
      config.use_rand48
          ? std::unique_ptr<workload::RandomSource>(std::make_unique<workload::Rand48Source>(
                static_cast<std::uint32_t>(config.seed)))
          : std::unique_ptr<workload::RandomSource>(
                std::make_unique<workload::XoshiroSource>(config.seed));

  buf.events.clear();
  buf.events.reserve(2 * p + 16);
  buf.requests.clear();
  buf.to_serve.clear();
  buf.parked.clear();
  buf.chunk_log.clear();
  buf.range_log.clear();
  if (config.record_chunk_log) {
    // The chunk count is technique-dependent and unknown up front;
    // seed the log with a capacity that covers typical non-SS runs.
    const std::size_t estimate =
        std::min(config.tasks * config.timesteps, 64 + 16 * p * config.timesteps);
    buf.chunk_log.reserve(estimate);
    buf.range_log.reserve(estimate);
  }

  Loop loop(config, *technique, *rng, buf);
  const SimTime makespan = loop.run();

  RunResult result;
  result.makespan = makespan;
  result.total_nominal_work = loop.total_nominal_work();
  result.chunk_count = loop.chunk_count();
  result.tasks_reclaimed = loop.tasks_reclaimed();
  result.chunk_log = std::move(buf.chunk_log);
  result.range_log = std::move(buf.range_log);
  result.master_busy_time = loop.master_busy_time();
  result.workers.resize(p);
  double wasted_sum = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    const Worker& wk = buf.workers[i];
    WorkerStats& w = result.workers[i];
    w.compute_time = wk.clock.time_in(ActorState::kComputing);
    wasted_sum += makespan - w.compute_time;
    // Idle after finalization too; the last transition was the finish.
    w.wait_time =
        wk.clock.time_in(ActorState::kWaitingRecv) + (makespan - wk.clock.last_transition);
    w.comm_time = wk.clock.time_in(ActorState::kCommunicating);
    w.tasks = wk.tasks;
    w.chunks = wk.chunks;
    w.failed = wk.failed;
  }
  // The analytic h is charged once per scheduling operation, spread
  // over the workers like the BOLD publication's per-worker overhead.
  if (config.overhead_mode == OverheadMode::kAnalytic) {
    wasted_sum += config.params.h * static_cast<double>(result.chunk_count);
  }
  result.avg_wasted_time = wasted_sum / static_cast<double>(p);
  return result;
}

RunResult run_simulation(const Config& config) {
  RunContext context;
  return run_simulation(config, context);
}

}  // namespace mw
