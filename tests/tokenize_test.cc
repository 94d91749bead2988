#include "src/text/tokenize.h"

#include <gtest/gtest.h>

namespace fairem {
namespace {

TEST(TokenizeTest, WhitespaceBasic) {
  EXPECT_EQ(WhitespaceTokenize("a b  c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(WhitespaceTokenize("  lead trail  "),
            (std::vector<std::string>{"lead", "trail"}));
  EXPECT_TRUE(WhitespaceTokenize("").empty());
  EXPECT_TRUE(WhitespaceTokenize("   ").empty());
}

TEST(TokenizeTest, AlnumLowercasesAndSplitsPunctuation) {
  EXPECT_EQ(AlnumTokenize("Qing-Hu Huang"),
            (std::vector<std::string>{"qing", "hu", "huang"}));
  EXPECT_EQ(AlnumTokenize("RX100 IV!"),
            (std::vector<std::string>{"rx100", "iv"}));
  EXPECT_TRUE(AlnumTokenize("---").empty());
}

TEST(TokenizeTest, QGramsPadded) {
  std::vector<std::string> grams = QGrams("ab", 3);
  // "##ab$$" -> ##a, #ab, ab$, b$$
  EXPECT_EQ(grams,
            (std::vector<std::string>{"##a", "#ab", "ab$", "b$$"}));
}

TEST(TokenizeTest, QGramsUnpadded) {
  EXPECT_EQ(QGrams("abcd", 2, /*pad=*/false),
            (std::vector<std::string>{"ab", "bc", "cd"}));
  EXPECT_TRUE(QGrams("a", 2, /*pad=*/false).empty());
}

TEST(TokenizeTest, QGramsOfEmptyString) {
  // Padding "##"+""+"$$" yields |s| + q - 1 = 2 boundary grams.
  EXPECT_EQ(QGrams("", 3).size(), 2u);
  EXPECT_TRUE(QGrams("", 3, /*pad=*/false).empty());
}

TEST(TokenizeTest, QGramCountMatchesFormula) {
  std::string s = "similarity";
  for (int q = 1; q <= 4; ++q) {
    EXPECT_EQ(QGrams(s, q, /*pad=*/true).size(), s.size() + q - 1);
  }
}

TEST(TokenizeTest, CountWhitespaceTokensAgreesWithTokenize) {
  for (std::string_view s :
       {"", " ", "a", "a b", "  a  b  ", "one\ttwo\nthree", "trailing ",
        " leading", "a  b   c    d"}) {
    EXPECT_EQ(CountWhitespaceTokens(s), WhitespaceTokenize(s).size())
        << "\"" << s << "\"";
  }
}

}  // namespace
}  // namespace fairem
