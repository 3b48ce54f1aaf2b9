#include "util/string_util.h"

#include <climits>
#include <cstdlib>

#include "gtest/gtest.h"

namespace turl {
namespace {

TEST(SplitStringTest, Basic) {
  auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, DropsEmptyPieces) {
  auto parts = SplitString(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(SplitStringTest, EmptyInput) {
  EXPECT_TRUE(SplitString("", ',').empty());
}

TEST(SplitWhitespaceTest, MixedWhitespace) {
  auto parts = SplitWhitespace("  hello\tworld \n foo ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[1], "world");
  EXPECT_EQ(parts[2], "foo");
}

TEST(JoinStringsTest, Basic) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(SplitJoinTest, RoundTrip) {
  std::string s = "year club goals";
  EXPECT_EQ(JoinStrings(SplitWhitespace(s), " "), s);
}

TEST(ToLowerAsciiTest, Basic) {
  EXPECT_EQ(ToLowerAscii("Hello World 42!"), "hello world 42!");
}

TEST(StripAsciiTest, Basic) {
  EXPECT_EQ(StripAscii("  x y  "), "x y");
  EXPECT_EQ(StripAscii("\t\n"), "");
  EXPECT_EQ(StripAscii("abc"), "abc");
}

TEST(StartsEndsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(EditDistanceTest, Identical) { EXPECT_EQ(EditDistance("abc", "abc"), 0u); }

TEST(EditDistanceTest, Classic) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
}

TEST(EditDistanceTest, EmptyStrings) {
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", ""), 0u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("satyajit", "satyajlt"),
            EditDistance("satyajlt", "satyajit"));
}

TEST(NormalizeSurfaceTest, LowercasesAndCollapses) {
  EXPECT_EQ(NormalizeSurface("  Satyajit   Ray "), "satyajit ray");
  EXPECT_EQ(NormalizeSurface("St. Louis, MO"), "st louis mo");
  EXPECT_EQ(NormalizeSurface("ABC-DEF"), "abc def");
}

TEST(NormalizeSurfaceTest, Empty) {
  EXPECT_EQ(NormalizeSurface(""), "");
  EXPECT_EQ(NormalizeSurface("   "), "");
  EXPECT_EQ(NormalizeSurface("..."), "");
}

TEST(FormatDoubleTest, Digits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(ParseIntInRangeTest, AcceptsOnlyWholeIntegersInRange) {
  long v = -7;
  EXPECT_TRUE(ParseIntInRange("0", 0, 65535, &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseIntInRange("65535", 0, 65535, &v));
  EXPECT_EQ(v, 65535);
  v = -7;
  for (const char* bad : {"", "abc", "8080x", "1.5", "-1", "65536", "70000",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseIntInRange(bad, 0, 65535, &v)) << bad;
  }
  EXPECT_EQ(v, -7);  // Untouched by every rejection.
  // Overflow is rejected even when the range is the whole of long.
  EXPECT_FALSE(ParseIntInRange("99999999999999999999", LONG_MIN, LONG_MAX, &v));
}

/// Sets the test-only knob for one case and unsets it on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

constexpr char kKnob[] = "TURL_STRING_UTIL_TEST_KNOB";

int ReadKnob(const char* value) {
  ScopedEnv env(kKnob, value);
  return EnvInt(kKnob, /*fallback=*/7, /*min_value=*/1, /*max_value=*/INT_MAX);
}

TEST(EnvIntTest, KeepsFallbackUnlessWholeIntegerInRange) {
  EXPECT_EQ(ReadKnob(nullptr), 7);  // Unset.
  EXPECT_EQ(ReadKnob(""), 7);
  EXPECT_EQ(ReadKnob("3"), 3);
  EXPECT_EQ(ReadKnob("4x"), 7) << "trailing junk is not 4";
  EXPECT_EQ(ReadKnob("abc"), 7);
  EXPECT_EQ(ReadKnob("0"), 7) << "below the minimum";
  EXPECT_EQ(ReadKnob("-2"), 7) << "below the minimum";
  EXPECT_EQ(ReadKnob("2147483648"), 7) << "overflows int";
  EXPECT_EQ(ReadKnob("99999999999999999999"), 7) << "overflows long";
  EXPECT_EQ(ReadKnob("2147483647"), INT_MAX);
}

EnvSwitch ReadSwitch(const char* value) {
  ScopedEnv env(kKnob, value);
  return ReadEnvSwitch(kKnob);
}

TEST(EnvSwitchTest, OnlyZeroAndOneAreAccepted) {
  EXPECT_EQ(ReadSwitch(nullptr), EnvSwitch::kUnset);
  EXPECT_EQ(ReadSwitch(""), EnvSwitch::kUnset);
  EXPECT_EQ(ReadSwitch("1"), EnvSwitch::kOn);
  EXPECT_EQ(ReadSwitch("0"), EnvSwitch::kOff);
  for (const char* bad : {"false", "off", "true", "on", "yes", "2", "01",
                          " 1", "1 "}) {
    EXPECT_EQ(ReadSwitch(bad), EnvSwitch::kUnset) << bad;
  }
}

}  // namespace
}  // namespace turl
