#include "net/frame.hpp"

#include <utility>

namespace net {

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 12);
  out += '#';
  out += std::to_string(payload.size());
  out += '\n';
  out.append(payload.data(), payload.size());
  return out;
}

FrameDecoder::FrameDecoder(std::size_t max_payload) : max_payload_(max_payload) {}

bool FrameDecoder::fail(std::string message) {
  state_ = State::dead;
  error_ = std::move(message);
  header_.clear();
  payload_.clear();
  need_ = 0;
  return false;
}

std::size_t FrameDecoder::awaiting_bytes() const {
  return state_ == State::payload ? need_ - payload_.size() : 0;
}

bool FrameDecoder::mid_frame() const {
  if (state_ == State::payload) return true;
  return state_ == State::header && (saw_hash_ || !header_.empty());
}

bool FrameDecoder::feed(std::string_view bytes, std::vector<std::string>& out) {
  if (state_ == State::dead) return false;
  std::size_t i = 0;
  while (i < bytes.size()) {
    if (state_ == State::header) {
      const char c = bytes[i++];
      if (!saw_hash_) {
        if (c != '#') return fail("frame: expected '#', got byte " + std::to_string(int(static_cast<unsigned char>(c))));
        saw_hash_ = true;
        continue;
      }
      if (c == '\n') {
        if (header_.empty()) return fail("frame: empty length header");
        // header_ is all digits with at most kMaxFrameHeaderDigits of
        // them, so this cannot overflow std::size_t.
        std::size_t length = 0;
        for (const char d : header_) length = length * 10 + static_cast<std::size_t>(d - '0');
        if (length == 0) return fail("frame: zero-length frame");
        if (length > max_payload_) {
          return fail("frame: declared payload of " + std::to_string(length) +
                      " bytes exceeds the " + std::to_string(max_payload_) + "-byte cap");
        }
        header_.clear();
        saw_hash_ = false;
        need_ = length;
        payload_.clear();
        state_ = State::payload;
        continue;
      }
      if (c < '0' || c > '9') {
        return fail("frame: non-digit byte " + std::to_string(int(static_cast<unsigned char>(c))) +
                    " in length header");
      }
      if (header_.size() >= kMaxFrameHeaderDigits) {
        return fail("frame: length header longer than " +
                    std::to_string(kMaxFrameHeaderDigits) + " digits");
      }
      header_ += c;
      continue;
    }
    // State::payload
    const std::size_t take = std::min(bytes.size() - i, need_ - payload_.size());
    payload_.append(bytes.data() + i, take);
    i += take;
    if (payload_.size() == need_) {
      out.push_back(std::move(payload_));
      payload_.clear();
      need_ = 0;
      state_ = State::header;
    }
  }
  return true;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace net
