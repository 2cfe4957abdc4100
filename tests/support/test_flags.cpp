#include <gtest/gtest.h>

#include "support/flags.hpp"

namespace {

using support::Flags;

Flags make_flags() {
  Flags flags;
  flags.define("runs", "100", "number of runs");
  flags.define("full", "false", "run the paper-exact protocol");
  flags.define("mu", "1.0", "mean task time");
  flags.define("label", "default", "free-form label");
  return flags;
}

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args.begin(), args.end()};
}

TEST(Flags, DefaultsApplyWhenUnset) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_int("runs"), 100);
  EXPECT_FALSE(flags.get_bool("full"));
  EXPECT_DOUBLE_EQ(flags.get_double("mu"), 1.0);
}

TEST(Flags, EqualsFormParses) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--runs=7", "--mu=2.5", "--full=true"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_int("runs"), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("mu"), 2.5);
  EXPECT_TRUE(flags.get_bool("full"));
}

TEST(Flags, SpaceFormParses) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--runs", "9", "--label", "hello"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_int("runs"), 9);
  EXPECT_EQ(flags.get("label"), "hello");
}

TEST(Flags, BareBooleanSwitch) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--full"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.get_bool("full"));
}

TEST(Flags, BooleanFlagDoesNotConsumeNextToken) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--full", "positional"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.get_bool("full"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--nope=1"});
  EXPECT_THROW(flags.parse(static_cast<int>(args.size()), args.data()), std::invalid_argument);
}

TEST(Flags, MalformedNumbersThrow) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--runs=abc", "--mu=1.2.3"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_THROW((void)flags.get_int("runs"), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("mu"), std::invalid_argument);
}

TEST(Flags, RedefinitionThrows) {
  Flags flags = make_flags();
  EXPECT_THROW(flags.define("runs", "1", "dup"), std::invalid_argument);
}

TEST(Flags, UndefinedLookupThrows) {
  Flags flags = make_flags();
  EXPECT_THROW((void)flags.get("nothere"), std::invalid_argument);
}

TEST(Flags, HasReportsExplicitOnly) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--runs=5"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.has("runs"));
  EXPECT_FALSE(flags.has("mu"));
}

TEST(Flags, UsageListsAllFlags) {
  Flags flags = make_flags();
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("--runs"), std::string::npos);
  EXPECT_NE(usage.find("--full"), std::string::npos);
  EXPECT_NE(usage.find("number of runs"), std::string::npos);
}

}  // namespace
