#include <gtest/gtest.h>

#include <string>

#include "simx/platform.hpp"

namespace {

/// The message parse_platform rejects `text` with ("" if it parses).
std::string rejection(const char* text) {
  try {
    (void)simx::parse_platform(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(PlatformParser, ParsesFullDescription) {
  const char* text = R"(
    # the system information of paper Figure 2
    host master speed=1e9
    host w0 speed=5e8 profile=0:5e8,10:1e8
    link l0 bandwidth=1.25e8 latency=1e-4
    route master w0 l0
  )";
  const simx::Platform p = simx::parse_platform(text);
  EXPECT_EQ(p.host_count(), 2u);
  EXPECT_EQ(p.link_count(), 1u);
  EXPECT_DOUBLE_EQ(p.host_at(0).speed(), 1e9);
  EXPECT_DOUBLE_EQ(p.host_at(1).speed(), 5e8);
  EXPECT_EQ(p.host_at(1).profile().speeds.size(), 2u);
  EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(0), p.host_at(1), 12500), 1e-4 + 1e-4);
}

TEST(PlatformParser, HostIndicesFollowFileOrder) {
  // Names sort "a" < "m" < "z"; indices must follow the lines instead.
  const char* text =
      "host z speed=1\nhost a speed=2\nlink l bandwidth=1 latency=0\nhost m speed=3\n"
      "route m z l\n";
  const simx::Platform p = simx::parse_platform(text);
  ASSERT_EQ(p.host_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(p.host_at(i).index(), i);
    EXPECT_DOUBLE_EQ(p.host_at(i).speed(), static_cast<double>(i + 1));
  }
  // The route joined "m" (index 2) and "z" (index 0), not "a".
  EXPECT_DOUBLE_EQ(p.comm_time(p.host_at(2), p.host_at(0), 1), 1.0);
  EXPECT_THROW((void)p.comm_time(p.host_at(1), p.host_at(0), 1), std::runtime_error);
}

TEST(PlatformParser, CommentsAndBlankLinesIgnored) {
  const char* text = "\n# only comments\n\n   \nhost h speed=1\n";
  EXPECT_EQ(simx::parse_platform(text).host_count(), 1u);
}

TEST(PlatformParser, ErrorsCarryLineNumbers) {
  const std::string message = rejection("host a speed=1\nbogus x\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
}

TEST(PlatformParser, RejectsMalformedDirectives) {
  for (const char* text :
       {"host only_name\n", "host h speed=abc\n", "host h speed=1 color=red\n",
        "link l bandwidth=1\n", "route a b l\n", "host h speed=1 profile=bad\n",
        "host h speed=inf\n", "host h speed=nan\n", "link l bandwidth=nan latency=0\n",
        "link l bandwidth=0 latency=0\n", "link l bandwidth=1 latency=nan\n",
        "link l bandwidth=1 latency=-1\n", "link l bandwidth=1 latency=inf\n"}) {
    const std::string message = rejection(text);
    EXPECT_NE(message.find("line 1"), std::string::npos) << text << " -> " << message;
  }
}

TEST(PlatformParser, DuplicateNamesRejected) {
  const std::string host = rejection("host a speed=1\nhost b speed=1\nhost a speed=1\n");
  EXPECT_NE(host.find("line 3"), std::string::npos) << host;
  EXPECT_NE(host.find("duplicate host: a"), std::string::npos) << host;

  const std::string link = rejection(
      "link l bandwidth=1 latency=0\nhost a speed=1\nlink l bandwidth=2 latency=0\n");
  EXPECT_NE(link.find("line 3"), std::string::npos) << link;
  EXPECT_NE(link.find("duplicate link: l"), std::string::npos) << link;

  // A host and a link may share a name: they live in separate tables.
  EXPECT_EQ(rejection("host x speed=1\nlink x bandwidth=1 latency=0\n"), "");
}

TEST(PlatformParser, UnknownRouteNamesRejected) {
  const char* base = "host a speed=1\nhost b speed=1\nlink l bandwidth=1 latency=0\n";
  for (const char* route : {"route a ghost l\n", "route ghost b l\n", "route a b ghost\n",
                            "route a b l ghost\n"}) {
    const std::string message = rejection((std::string(base) + route).c_str());
    EXPECT_NE(message.find("line 4"), std::string::npos) << route << " -> " << message;
    EXPECT_NE(message.find("unknown"), std::string::npos) << route << " -> " << message;
    EXPECT_NE(message.find("ghost"), std::string::npos) << route << " -> " << message;
  }
  // A route may only name hosts and links declared above it.
  const std::string forward = rejection("host a speed=1\nroute a b l\nhost b speed=1\n"
                                        "link l bandwidth=1 latency=0\n");
  EXPECT_NE(forward.find("line 2"), std::string::npos) << forward;
}

}  // namespace
