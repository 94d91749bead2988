#include "src/util/string_util.h"

#include <gtest/gtest.h>

namespace fairem {
namespace {

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Hello World"), "hello world");
  EXPECT_EQ(ToLowerAscii("ABC123xyz"), "abc123xyz");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(StringUtilTest, TrimAscii) {
  EXPECT_EQ(TrimAscii("  hi  "), "hi");
  EXPECT_EQ(TrimAscii("\t\nhi"), "hi");
  EXPECT_EQ(TrimAscii("hi"), "hi");
  EXPECT_EQ(TrimAscii("   "), "");
  EXPECT_EQ(TrimAscii(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ParseDoubleAcceptsNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("  -2 ", &v));
  EXPECT_DOUBLE_EQ(v, -2.0);
  EXPECT_TRUE(ParseDouble("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_TRUE(ParseDouble("7", nullptr));
}

TEST(StringUtilTest, ParseDoubleRejectsJunk) {
  EXPECT_FALSE(ParseDouble("", nullptr));
  EXPECT_FALSE(ParseDouble("abc", nullptr));
  EXPECT_FALSE(ParseDouble("1.5x", nullptr));
  EXPECT_FALSE(ParseDouble("nan", nullptr));
  EXPECT_FALSE(ParseDouble("inf", nullptr));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

}  // namespace
}  // namespace fairem
