#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace kncube::util {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, SeparateKeyValue) {
  const Args a = make_args({"--k", "16"});
  EXPECT_EQ(a.get_int("k", 0), 16);
}

TEST(Args, EqualsForm) {
  const Args a = make_args({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0.0), 0.25);
}

TEST(Args, BareFlagIsTrue) {
  const Args a = make_args({"--verbose"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_TRUE(a.get_bool("verbose", false));
}

TEST(Args, MissingKeyUsesDefault) {
  const Args a = make_args({});
  EXPECT_EQ(a.get_int("k", 7), 7);
  EXPECT_EQ(a.get_string("name", "default"), "default");
  EXPECT_FALSE(a.get_bool("flag", false));
}

TEST(Args, BoolSpellings) {
  EXPECT_TRUE(make_args({"--x", "true"}).get_bool("x", false));
  EXPECT_TRUE(make_args({"--x", "1"}).get_bool("x", false));
  EXPECT_TRUE(make_args({"--x", "yes"}).get_bool("x", false));
  EXPECT_FALSE(make_args({"--x", "false"}).get_bool("x", true));
  EXPECT_FALSE(make_args({"--x", "0"}).get_bool("x", true));
  EXPECT_FALSE(make_args({"--x", "off"}).get_bool("x", true));
}

TEST(Args, BadBoolThrows) {
  EXPECT_THROW(make_args({"--x", "maybe"}).get_bool("x", false), std::invalid_argument);
}

TEST(Args, FlagFollowedByOptionIsNotConsumed) {
  const Args a = make_args({"--flag", "--k", "3"});
  EXPECT_TRUE(a.get_bool("flag", false));
  EXPECT_EQ(a.get_int("k", 0), 3);
}

TEST(Args, PositionalArgumentsPreserved) {
  const Args a = make_args({"one", "--k", "2", "two"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "one");
  EXPECT_EQ(a.positional()[1], "two");
}

TEST(Args, UnknownKeysDetection) {
  const Args a = make_args({"--k", "1", "--typo", "2"});
  const auto unknown = a.unknown_keys({"k"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
  EXPECT_TRUE(a.unknown_keys({"k", "typo"}).empty());
}

TEST(Args, KeysListsEverything) {
  const Args a = make_args({"--b", "1", "--a", "2"});
  const auto keys = a.keys();
  EXPECT_EQ(keys.size(), 2u);
}

TEST(Args, LastValueWinsOnRepeat) {
  const Args a = make_args({"--k", "1", "--k", "2"});
  EXPECT_EQ(a.get_int("k", 0), 2);
}

TEST(Args, EmptyValueViaEquals) {
  const Args a = make_args({"--name="});
  EXPECT_TRUE(a.has("name"));
  EXPECT_EQ(a.get_string("name", "d"), "");
  // Empty numeric values fall back to the default rather than throwing.
  EXPECT_EQ(a.get_int("name", 5), 5);
}

TEST(Args, MalformedNumbersThrowNamingTheFlag) {
  // The whole token must parse, and a double must be finite.
  for (const char* v : {"x", "8x", "1.5", "99999999999999999999"}) {
    EXPECT_THROW(make_args({"--points", v}).get_int("points", 0),
                 std::invalid_argument)
        << v;
  }
  for (const char* v : {"nan", "inf", "1e999", "0.1x", "x"}) {
    EXPECT_THROW(make_args({"--max-rate", v}).get_double("max-rate", 0.0),
                 std::invalid_argument)
        << v;
  }
  try {
    make_args({"--points", "x"}).get_int("points", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--points"), std::string::npos) << e.what();
  }
  EXPECT_EQ(make_args({"--points", "-3"}).get_int("points", 0), -3);
  EXPECT_DOUBLE_EQ(make_args({"--lo", "1e-3"}).get_double("lo", 0.0), 1e-3);
}

}  // namespace
}  // namespace kncube::util
