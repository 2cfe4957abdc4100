#pragma once

#include <chrono>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.hpp"
#include "support/thread_annotations.hpp"

namespace net {

/// The message link between a sweep coordinator and one worker: one
/// connected stream socket carrying length-delimited frames
/// (net/frame.hpp).  Every worker link is one -- an accepted TCP
/// connection from a `work --connect` worker, or the AF_UNIX
/// socketpair a coordinator hands a worker it spawns -- so the
/// coordinator and worker loops speak one dialect whatever the peer.
/// Owns the fd and makes it nonblocking.
class Transport {
 public:
  explicit Transport(int fd,
                     std::chrono::milliseconds write_deadline = std::chrono::seconds(10));
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Send one protocol message as one frame.  Thread-safe: the
  /// worker's heartbeat thread and main loop share one link.  Returns
  /// false once the peer is gone or has stopped reading for the whole
  /// write deadline -- callers treat that like a death.
  [[nodiscard]] bool send(std::string_view message) DLS_EXCLUDES(mutex_);

  /// The fd to poll for readability (POLLIN) -- the coordinator
  /// multiplexes many links through one poll() set.
  [[nodiscard]] int poll_fd() const DLS_EXCLUDES(mutex_) {
    const support::LockGuard lock(mutex_);
    return fd_;
  }

  /// Nonblocking read: decode everything currently buffered by the
  /// kernel and append complete messages to `out`.  Returns false when
  /// the peer is finished -- either cleanly (EOF between frames,
  /// error() == "") or because the byte stream was garbage or cut
  /// mid-frame (error() nonempty).  Messages decoded before the
  /// failure are still appended.
  [[nodiscard]] bool drain(std::vector<std::string>& out) DLS_EXCLUDES(mutex_);

  /// Tear the link down now (close the fd).  Idempotent.  A
  /// coordinator hangs up on a misbehaving worker this way (and also
  /// SIGKILLs it when it spawned it).
  void shutdown() DLS_EXCLUDES(mutex_);

  /// Why drain() returned false: empty for a clean EOF, a framing
  /// diagnostic for a corrupt stream.
  [[nodiscard]] const std::string& error() const { return error_; }

  enum class RecvStatus { ok, timeout, closed };

  /// Blocking single-message receive with a timeout, built on
  /// poll_fd()+drain() with an internal queue.  The worker side's main
  /// loop uses this; the coordinator never does (it poll()s many links
  /// at once and calls drain() directly -- mixing the two on one link
  /// would strand messages in the internal queue).
  [[nodiscard]] RecvStatus recv(std::string& out, std::chrono::milliseconds timeout);

 private:
  /// Guards the fd (send() vs shutdown() cross-thread) and serializes
  /// whole frames so concurrent sends never interleave.  The decoder
  /// state below is NOT under it: drain(), recv() and error() belong
  /// to the single read-side thread by contract.
  mutable support::Mutex mutex_;
  int fd_ DLS_GUARDED_BY(mutex_);
  std::chrono::milliseconds write_deadline_;
  FrameDecoder decoder_;             ///< read-side thread only
  std::string error_;                ///< read-side thread only
  bool finished_ = false;            ///< read-side thread only
  std::deque<std::string> pending_;  ///< recv() lookahead only
  bool recv_closed_ = false;
};

}  // namespace net
