#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace net {

/// Length-delimited framing, the one wire format of every
/// coordinator/worker link (dls::net).
///
/// Messages carry binary payloads -- the SPEC text with its embedded
/// newlines, the FETCH data chunks -- so every message rides in a
/// length-delimited frame:
///
///   '#' <decimal payload length> '\n' <payload bytes>
///
/// The header is ASCII so a wire capture stays eyeballable; the
/// payload is arbitrary bytes.  Frames are hard-bounded: a declared
/// length of zero or one above kMaxFramePayload is a framing error
/// (an oversized length prefix must not become an allocation bomb),
/// as is any header that is not '#' + digits + '\n'.  A garbled frame
/// stream is a failed peer -- the decoder latches the error and
/// refuses further input, exactly like a malformed message.
constexpr std::size_t kMaxFramePayload = 4u * 1024u * 1024u;

/// Longest legal header digit run: kMaxFramePayload has 7 digits; one
/// spare digit keeps the bound orthogonal to the cap check.
constexpr std::size_t kMaxFrameHeaderDigits = 8;

[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed() arbitrary byte slices, complete
/// payloads are appended to `out`.  Returns false once the stream is
/// irrecoverably malformed (error() says why); the decoder stays dead
/// from then on.  A partial frame at the end of the fed bytes is not
/// an error -- it is simply awaiting more input (awaiting_bytes()
/// says how many payload bytes are still outstanding).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload);

  [[nodiscard]] bool feed(std::string_view bytes, std::vector<std::string>& out);

  [[nodiscard]] bool failed() const { return state_ == State::dead; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Payload bytes still needed to finish the frame in progress
  /// (0 when between frames or dead).
  [[nodiscard]] std::size_t awaiting_bytes() const;
  /// True while a partially-received frame (header or payload) sits in
  /// the decoder -- an EOF here means the peer died mid-frame.
  [[nodiscard]] bool mid_frame() const;

 private:
  enum class State { header, payload, dead };

  bool fail(std::string message);

  State state_ = State::header;
  std::size_t max_payload_;
  std::string header_;   ///< digits collected so far (without '#')
  bool saw_hash_ = false;
  std::size_t need_ = 0;
  std::string payload_;
  std::string error_;
};

/// FNV-1a 64-bit -- the dependency-free checksum the FETCH data path
/// verifies streamed stripes with (alongside the byte length).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace net
