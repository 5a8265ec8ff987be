// Unit tests for string helpers (util/string_util.hpp).
#include "util/string_util.hpp"

#include <gtest/gtest.h>

namespace ccc {
namespace {

TEST(Split, BasicAndEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(ParseDouble, ValidInputs) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 "), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW((void)parse_double("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("1.5x"), std::invalid_argument);
  EXPECT_THROW((void)parse_double(""), std::invalid_argument);
}

TEST(ParseU64, ValidAndInvalid) {
  EXPECT_EQ(parse_u64("123"), 123u);
  EXPECT_EQ(parse_u64(" 0 "), 0u);
  EXPECT_THROW((void)parse_u64("-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("12.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64(""), std::invalid_argument);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(FormatCompact, IntegersAreClean) {
  EXPECT_EQ(format_compact(42.0), "42");
  EXPECT_EQ(format_compact(0.0), "0");
  EXPECT_EQ(format_compact(-7.0), "-7");
}

TEST(FormatCompact, LargeAndTinyUseScientific) {
  EXPECT_EQ(format_compact(1.5e9), "1.5e+09");
  EXPECT_EQ(format_compact(2.0e-5), "2e-05");
}

TEST(FormatCompact, FractionsKeepDigits) {
  EXPECT_EQ(format_compact(0.5), "0.5000");
  EXPECT_EQ(format_compact(1.25), "1.2500");
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("convex,convex-naive,lru"), "convex,convex-naive,lru");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_escape("\r\b\f"), "\\r\\b\\f");
}

}  // namespace
}  // namespace ccc
