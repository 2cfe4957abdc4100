// Unit tests of the wire's building blocks (net/frame.hpp,
// net/socket.hpp): length-delimited frame encode/decode including the
// hand-written malformed-frame corpus, the FNV-1a checksum, and
// host:port parsing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace {

using net::FrameDecoder;

std::vector<std::string> decode_all(FrameDecoder& decoder, std::string_view bytes) {
  std::vector<std::string> out;
  EXPECT_TRUE(decoder.feed(bytes, out)) << decoder.error();
  return out;
}

TEST(Frame, EncodeIsHashLengthNewlinePayload) {
  EXPECT_EQ(net::encode_frame("READY"), "#5\nREADY");
  EXPECT_EQ(net::encode_frame("x"), "#1\nx");
}

TEST(Frame, RoundTripsSingleAndBackToBackFrames) {
  FrameDecoder decoder;
  const auto one = decode_all(decoder, net::encode_frame("HB 42"));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], "HB 42");

  const auto two = decode_all(decoder, net::encode_frame("READY") + net::encode_frame("QUIT"));
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], "READY");
  EXPECT_EQ(two[1], "QUIT");
}

TEST(Frame, PayloadBytesAreOpaque) {
  // The whole point of framing: SPEC and DATA payloads carry embedded
  // newlines, '#', and NUL bytes without confusing the stream.
  const std::string payload = std::string("line1\nline2\n#7\n\0binary", 22);
  FrameDecoder decoder;
  const auto out = decode_all(decoder, net::encode_frame(payload));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], payload);
}

TEST(Frame, ByteAtATimeDeliveryReassembles) {
  // TCP guarantees nothing about read boundaries; the decoder must
  // reassemble from any segmentation, including one byte per feed.
  const std::string wire = net::encode_frame("DONE 3 1 16 0") + net::encode_frame("HB 16");
  FrameDecoder decoder;
  std::vector<std::string> out;
  for (const char byte : wire) {
    ASSERT_TRUE(decoder.feed(std::string_view(&byte, 1), out)) << decoder.error();
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "DONE 3 1 16 0");
  EXPECT_EQ(out[1], "HB 16");
}

TEST(Frame, PartialFinalFrameIsAwaitingNotError) {
  FrameDecoder decoder;
  std::vector<std::string> out;
  EXPECT_FALSE(decoder.mid_frame());
  ASSERT_TRUE(decoder.feed("#10\nabc", out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(decoder.mid_frame());  // EOF now = peer died mid-frame
  EXPECT_EQ(decoder.awaiting_bytes(), 7u);
  ASSERT_TRUE(decoder.feed("defghij", out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "abcdefghij");
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_EQ(decoder.awaiting_bytes(), 0u);
}

TEST(Frame, PartialHeaderIsMidFrameToo) {
  FrameDecoder decoder;
  std::vector<std::string> out;
  ASSERT_TRUE(decoder.feed("#12", out));
  EXPECT_TRUE(decoder.mid_frame());
}

// The hand-written malformed-frame corpus: every entry must latch the
// decoder dead (failed(), nonempty error(), feed refused from then on)
// without crashing -- an oversized length prefix must never become an
// allocation bomb.
TEST(Frame, MalformedFrameCorpusLatchesTheDecoderDead) {
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"READY", "payload bytes where a header should be"},
      {"5\nREADY", "missing '#'"},
      {"#\n", "empty length"},
      {"#0\n", "zero-length frame"},
      {"#-1\n", "negative length"},
      {"# 5\nREADY", "space in length"},
      {"#5x\nREADY", "non-digit in length"},
      {"#4194305\n", "one above kMaxFramePayload"},
      {"#99999999\n", "oversized length prefix"},
      {"#999999999\n", "more digits than kMaxFrameHeaderDigits"},
      {"#18446744073709551616\n", "uint64 overflow length"},
      {std::string("#\x00", 2) + "5\nREADY", "NUL in header"},
  };
  for (const auto& [bytes, what] : corpus) {
    FrameDecoder decoder;
    std::vector<std::string> out;
    EXPECT_FALSE(decoder.feed(bytes, out)) << what;
    EXPECT_TRUE(decoder.failed()) << what;
    EXPECT_FALSE(decoder.error().empty()) << what;
    // Dead means dead: even a well-formed frame is refused now.
    EXPECT_FALSE(decoder.feed(net::encode_frame("READY"), out)) << what;
  }
}

TEST(Frame, MessagesBeforeTheGarbageAreStillDelivered) {
  FrameDecoder decoder;
  std::vector<std::string> out;
  EXPECT_FALSE(decoder.feed(net::encode_frame("READY") + "garbage", out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "READY");
}

TEST(Frame, MaxPayloadExactlyAtTheCapIsAccepted) {
  const std::string big(net::kMaxFramePayload, 'x');
  FrameDecoder decoder;
  const auto out = decode_all(decoder, net::encode_frame(big));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), net::kMaxFramePayload);
}

TEST(Fnv, KnownVectors) {
  // Published FNV-1a 64 test vectors: the empty string hashes to the
  // offset basis; "a" to 0xaf63dc4c8601ec8c.
  EXPECT_EQ(net::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(net::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(net::fnv1a64("ab"), net::fnv1a64("ba"));  // order-sensitive
}

TEST(HostPort, ParsesAndRejects) {
  const net::HostPort a = net::parse_host_port("127.0.0.1:9000");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 9000);
  EXPECT_EQ(net::parse_host_port(":0").host, "");  // wildcard bind, kernel port
  EXPECT_EQ(net::parse_host_port("localhost:65535").port, 65535);

  for (const char* bad : {"", "127.0.0.1", "127.0.0.1:", ":x", "host:70000", "host:-1",
                          "host:12x", "host:999999999999"}) {
    EXPECT_THROW((void)net::parse_host_port(bad), std::invalid_argument) << bad;
  }
}

}  // namespace
