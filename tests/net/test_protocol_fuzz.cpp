// Protocol fuzz battery: seeded byte-mangled, truncated, split and
// reordered framed messages pushed through the frame decoder and both
// message parsers.  The contract under fuzz is narrow and absolute:
// FrameDecoder::feed returns false (never throws, never over-reads),
// and the parsers throw std::invalid_argument and nothing else.  Run under ASan+UBSan in CI
// (the sanitize job builds every test), this is the memory-safety
// gate on the wire format.
//
// Scenario count: kSeededScenarios (>= 10k) seeded mutations plus the
// hand-written malformed corpus and a structured round-trip sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dist/protocol.hpp"
#include "net/frame.hpp"

namespace {

constexpr std::size_t kSeededScenarios = 12000;

// splitmix64: the repo's standard seeded stream (dist::derive_chaos
// uses the same construction), so failures replay from the seed alone.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::size_t below(std::size_t bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  std::uint64_t state_;
};

// A seeded valid protocol line, drawn from every message type of both
// directions (the mutators below then break it).
std::string random_message(Rng& rng) {
  switch (rng.below(10)) {
    case 0: {
      dist::LeaseMsg lease{0, 1 + rng.below(64), rng.below(8), rng.below(1000)};
      lease.stripe = rng.below(lease.stripe_count);  // parser checks stripe < count
      return dist::encode(dist::CoordinatorMsg(lease));
    }
    case 1:
      return dist::encode(dist::CoordinatorMsg(dist::QuitMsg{}));
    case 2:
      return dist::encode(dist::CoordinatorMsg(dist::PingMsg{}));
    case 3: {
      std::string text;
      for (std::size_t i = rng.below(64); i > 0; --i) {
        text += static_cast<char>(rng.below(256));
      }
      return dist::encode(dist::CoordinatorMsg(dist::SpecMsg{text}));
    }
    case 4: {
      std::string bytes;
      for (std::size_t i = rng.below(128); i > 0; --i) {
        bytes += static_cast<char>(rng.below(256));
      }
      return dist::encode(dist::WorkerMsg(dist::RecordMsg{bytes}));
    }
    case 5:
      return dist::encode(dist::WorkerMsg(dist::ReadyMsg{}));
    case 6:
      return dist::encode(dist::WorkerMsg(dist::HeartbeatMsg{rng.below(100000)}));
    case 7:
      return dist::encode(
          dist::WorkerMsg(dist::DoneMsg{rng.below(64), rng.below(8), rng.below(1000), rng.next()}));
    case 8:
      return dist::encode(
          dist::WorkerMsg(dist::FailMsg{rng.below(64), rng.below(8), "err msg with spaces"}));
    default:
      return dist::encode(dist::WorkerMsg(dist::HelloMsg{rng.below(4), rng.below(2) ? "tok" : ""}));
  }
}

// Parse a decoded payload as both directions.  Under fuzz the ONLY
// acceptable outcome per direction is success or std::invalid_argument;
// any other exception (or a sanitizer report) escapes and fails the
// test.
void parse_both_ways(const std::string& line) {
  try {
    (void)dist::parse_coordinator_msg(line);
  } catch (const std::invalid_argument&) {
  }
  try {
    (void)dist::parse_worker_msg(line);
  } catch (const std::invalid_argument&) {
  }
}

// One seeded scenario: build a small wire of framed valid messages,
// then mangle it (flip / truncate / insert / delete / swap chunks /
// duplicate), then deliver it to a FrameDecoder in randomly-split
// slices and parse whatever still decodes.
void run_scenario(std::uint64_t seed) {
  Rng rng(seed);
  std::string wire;
  for (std::size_t i = 1 + rng.below(4); i > 0; --i) {
    wire += net::encode_frame(random_message(rng));
  }

  switch (rng.below(6)) {
    case 0:  // flip 1..8 bytes
      for (std::size_t i = 1 + rng.below(8); i > 0 && !wire.empty(); --i) {
        wire[rng.below(wire.size())] = static_cast<char>(rng.below(256));
      }
      break;
    case 1:  // truncate (partial final frame, or nothing at all)
      wire.resize(rng.below(wire.size() + 1));
      break;
    case 2:  // insert garbage bytes
      for (std::size_t i = 1 + rng.below(8); i > 0; --i) {
        wire.insert(rng.below(wire.size() + 1), 1, static_cast<char>(rng.below(256)));
      }
      break;
    case 3:  // delete a run of bytes
      if (!wire.empty()) {
        const std::size_t at = rng.below(wire.size());
        wire.erase(at, 1 + rng.below(wire.size() - at));
      }
      break;
    case 4: {  // reorder: swap two chunks (frames arrive out of order)
      if (wire.size() >= 4) {
        const std::size_t cut = 1 + rng.below(wire.size() - 2);
        wire = wire.substr(cut) + wire.substr(0, cut);
      }
      break;
    }
    default:  // duplicate a slice (replayed bytes)
      if (!wire.empty()) {
        const std::size_t at = rng.below(wire.size());
        const std::size_t len = 1 + rng.below(wire.size() - at);
        wire.insert(at, wire.substr(at, len));
      }
      break;
  }

  net::FrameDecoder frames;
  std::vector<std::string> decoded;
  std::size_t i = 0;
  bool open = true;
  while (i < wire.size() && open) {
    const std::size_t take = std::min(wire.size() - i, 1 + rng.below(64));
    open = frames.feed(std::string_view(wire).substr(i, take), decoded);
    i += take;
  }
  if (!open) {
    EXPECT_FALSE(frames.error().empty());
  }
  for (const std::string& line : decoded) parse_both_ways(line);
}

TEST(ProtocolFuzz, SeededMangleTruncateSplitReorderScenarios) {
  for (std::uint64_t seed = 0; seed < kSeededScenarios; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_scenario(seed);
  }
}

// The hand-written malformed corpus, straight into the parsers (no
// framing): every line must raise std::invalid_argument from at least
// the direction it impersonates, and nothing worse from either.
TEST(ProtocolFuzz, HandWrittenMalformedLines) {
  const std::vector<std::string> corpus = {
      "",
      " ",
      "LEASE",
      "LEASE 1",
      "LEASE 1 2",
      "LEASE 1 2 3",          // missing held count
      "LEASE x 2 3 0",        // non-numeric stripe
      "LEASE 1 2 3 -",        // held count must be a number
      "LEASE 1 2 3 0 extra",  // trailing token
      "LEASE 99999999999999999999 2 3 0",  // overflow
      "lease 1 2 3 0",        // wrong case
      "QUIT now",
      "PINGG",
      "SPEC",                  // SPEC with no payload at all
      "RECORD",                // RECORD with no payload separator
      "READY steady",
      "HB",
      "HB x",
      "HB 1 2",
      "DONE 1 2 3",
      "DONE 1 2 3 4 5",
      "DONE 1 2 3 nothex",
      "DONE 1 2 3 1123456789abcdef0",  // digest overflows 64 bits
      "FAIL 1",                // FAIL with no message
      "HELLO",
      "HELLO 1",
      "HELLO x tok",
      "HELLO 1 tok extra",
      std::string("RE\0CORD 1", 9),
      "\xff\xfe\xfd",
      "DONE\n1 2 3 4",  // embedded newline (a framing layer leak)
  };
  for (const std::string& line : corpus) {
    SCOPED_TRACE(line);
    bool coordinator_ok = true;
    bool worker_ok = true;
    try {
      (void)dist::parse_coordinator_msg(line);
    } catch (const std::invalid_argument&) {
      coordinator_ok = false;
    }
    try {
      (void)dist::parse_worker_msg(line);
    } catch (const std::invalid_argument&) {
      worker_ok = false;
    }
    EXPECT_FALSE(coordinator_ok && worker_ok)
        << "malformed line parsed cleanly in both directions";
  }
}

// Structure-preserving property: every seeded valid message survives
// encode -> frame -> decode -> parse -> re-encode byte-identically.
// This is what makes the fuzzer meaningful -- the decoders accept
// everything the encoders emit, so the mangle scenarios above are
// testing rejection, not a codec that rejects its own output.
TEST(ProtocolFuzz, SeededRoundTripsAreByteIdentical) {
  Rng rng(20170529);
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::string line = random_message(rng);
    SCOPED_TRACE("iteration " + std::to_string(i));

    net::FrameDecoder decoder;
    std::vector<std::string> out;
    ASSERT_TRUE(decoder.feed(net::encode_frame(line), out)) << decoder.error();
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0], line);

    // One of the two parsers must accept it and re-encode the same
    // bytes (the directions share no verbs, so exactly one will).
    std::string reencoded;
    try {
      reencoded = dist::encode(dist::parse_coordinator_msg(line));
    } catch (const std::invalid_argument&) {
      reencoded = dist::encode(dist::parse_worker_msg(line));
    }
    EXPECT_EQ(reencoded, line);
  }
}

}  // namespace
