#include "src/text/edit_distance.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "src/util/rng.h"

namespace fairem {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2);
}

TEST(LevenshteinTest, SimilarityNormalization) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abcd", "abce"), 0.75);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("ab", "xy"), 0.0);
}

TEST(DamerauTest, TranspositionCountsAsOne) {
  EXPECT_EQ(DamerauLevenshteinDistance("ab", "ba"), 1);
  EXPECT_EQ(LevenshteinDistance("ab", "ba"), 2);
  EXPECT_EQ(DamerauLevenshteinDistance("brown", "borwn"), 1);
}

TEST(HammingTest, LengthDifferencesCount) {
  EXPECT_EQ(HammingDistance("karolin", "kathrin"), 3);
  EXPECT_EQ(HammingDistance("abc", "abcd"), 1);
  EXPECT_EQ(HammingDistance("", ""), 0);
  EXPECT_DOUBLE_EQ(HammingSimilarity("abc", "abc"), 1.0);
}

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.7667, 1e-3);
  EXPECT_DOUBLE_EQ(JaroSimilarity("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("MARTHA", "MARHTA");
  double jw = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.9611, 1e-3);
  // No common prefix: no boost.
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "xbc"),
                   JaroSimilarity("abc", "xbc"));
}

// JaroWinklerAtLeast must answer exactly as JaroWinklerSimilarity(a, b) >=
// t, on every input. A bound that is too tight turns a true into a false
// here; the threshold equal to the pair's own score is where a bound that
// rounds or undercounts is caught.
const double kThresholds[] = {0.80, 0.84, 0.88, 0.93};

void ExpectAtLeastAgrees(const std::string& a, const std::string& b) {
  const double reached = JaroWinklerSimilarity(a, b);
  std::vector<double> thresholds(std::begin(kThresholds),
                                 std::end(kThresholds));
  thresholds.insert(thresholds.end(), {0.0, 1.0, reached});
  for (double t : thresholds) {
    EXPECT_EQ(JaroWinklerAtLeast(a, b, t), reached >= t)
        << "'" << a << "' / '" << b << "' at " << t;
  }
  EXPECT_TRUE(JaroWinklerAtLeast(a, b, reached)) << a << " / " << b;
}

TEST(JaroWinklerAtLeastTest, EmptyEqualAndOneCharacterStrings) {
  for (const char* a : {"", "a", "b", "ab", "guest editorial"}) {
    for (const char* b : {"", "a", "b", "ab", "guest editorial"}) {
      ExpectAtLeastAgrees(a, b);
    }
  }
}

TEST(JaroWinklerAtLeastTest, PairsThatAgreeOnlyOnThePrefix) {
  // The Winkler bonus is most of these pairs' score: a bound without it
  // rejects pairs the kernel accepts.
  for (const std::string prefix : {"a", "ab", "abc", "abcd", "abcde"}) {
    for (const std::string tail_a : {"", "x", "xyz", "xyzw", "xyzwvu"}) {
      for (const std::string tail_b : {"", "q", "qrs", "qrst", "qrstpo"}) {
        ExpectAtLeastAgrees(prefix + tail_a, prefix + tail_b);
        ExpectAtLeastAgrees(prefix + tail_a, prefix + tail_a + tail_b);
      }
    }
  }
  // "abcdxxxx" / "abcdyyyy": Jaro 2/3, the prefix lifts the score to 0.8.
  EXPECT_TRUE(JaroWinklerAtLeast("abcdxxxx", "abcdyyyy", 0.79));
  EXPECT_FALSE(JaroWinklerAtLeast("abcdxxxx", "abcdyyyy", 0.81));
}

TEST(JaroWinklerAtLeastTest, LongRunsOfOneByte) {
  // 300 copies of one byte: a count that saturates at 255 undercounts the
  // shared characters and rejects near-identical pairs.
  const std::string run(300, 'x');
  ExpectAtLeastAgrees(run, run);
  ExpectAtLeastAgrees(run, run + "y");
  ExpectAtLeastAgrees(run, run.substr(1) + "y");
  ExpectAtLeastAgrees("y" + run, run);
  ExpectAtLeastAgrees(run + "ab", run + "ba");
  ExpectAtLeastAgrees(run, std::string(150, 'x'));
}

TEST(JaroWinklerAtLeastTest, RandomPairsAgree) {
  Rng rng(2023);
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    // Small alphabets make near pairs, transpositions and repeated bytes
    // common; the second string is often an edited copy of the first.
    const int alphabet = static_cast<int>(rng.NextInt(2, 6));
    auto random_string = [&](int length) {
      std::string s;
      for (int i = 0; i < length; ++i) {
        s.push_back(static_cast<char>('a' + rng.NextBounded(alphabet)));
      }
      return s;
    };
    std::string a = random_string(static_cast<int>(rng.NextInt(0, 14)));
    std::string b = rng.NextBool(0.5)
                        ? random_string(static_cast<int>(rng.NextInt(0, 14)))
                        : a;
    if (!b.empty() && rng.NextBool(0.7)) {
      b[rng.NextBounded(b.size())] = static_cast<char>('a' + alphabet);
    }
    ExpectAtLeastAgrees(a, b);
    ByteCounts counts{};
    CharCounts(a).AddTo(&counts);
    if (!JaroWinklerMayReach(a, b, CharCounts(b).Shared(counts), 0.88)) {
      ++rejected;
    }
  }
  // Both halves of the predicate ran: the bound rejected some pairs.
  EXPECT_GT(rejected, 100);
}

TEST(CharCountsTest, SharedCountsCommonCharactersWithMultiplicity) {
  ByteCounts counts{};
  CharCounts("banana").AddTo(&counts);
  EXPECT_EQ(counts['a'], 3u);
  EXPECT_EQ(CharCounts("bandana").Shared(counts), 6u);
  EXPECT_EQ(CharCounts("xyz").Shared(counts), 0u);
  EXPECT_EQ(CharCounts("").Shared(counts), 0u);
  CharCounts("banana").RemoveFrom(&counts);
  EXPECT_EQ(counts, ByteCounts{});
  CharCounts(std::string(300, '\xff')).AddTo(&counts);
  EXPECT_EQ(counts[0xff], 300u);
}

TEST(AlignmentTest, NeedlemanWunschIdentityAndDisjoint) {
  EXPECT_DOUBLE_EQ(NeedlemanWunschSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NeedlemanWunschSimilarity("", ""), 1.0);
  EXPECT_LT(NeedlemanWunschSimilarity("aaaa", "bbbb"), 0.2);
}

TEST(AlignmentTest, SmithWatermanFindsLocalMatch) {
  // A shared substring scores by its local alignment: "hello" (5 of 9
  // chars) scores 2*5 / (2*9) against unrelated flanks.
  EXPECT_NEAR(SmithWatermanSimilarity("xxhelloyy", "zzhelloww"), 5.0 / 9.0,
              1e-6);
  EXPECT_GT(SmithWatermanSimilarity("xxhelloyy", "zzhelloww"),
            SmithWatermanSimilarity("xxhelloyy", "qqqqwwwww"));
  EXPECT_DOUBLE_EQ(SmithWatermanSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(SmithWatermanSimilarity("a", ""), 0.0);
}

TEST(PrefixTest, Values) {
  EXPECT_DOUBLE_EQ(PrefixSimilarity("abcdef", "abcxyz"), 0.5);
  EXPECT_DOUBLE_EQ(PrefixSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(PrefixSimilarity("abc", "abc"), 1.0);
}

TEST(ExactMatchTest, Values) {
  EXPECT_DOUBLE_EQ(ExactMatchSimilarity("x", "x"), 1.0);
  EXPECT_DOUBLE_EQ(ExactMatchSimilarity("x", "y"), 0.0);
  EXPECT_DOUBLE_EQ(ExactMatchSimilarity("", ""), 1.0);
}

// Property sweep: every character similarity is symmetric, bounded in
// [0, 1], and 1 on identical inputs.
using CharSim = double (*)(std::string_view, std::string_view);

class CharSimilarityProperty
    : public ::testing::TestWithParam<std::tuple<const char*, CharSim>> {};

TEST_P(CharSimilarityProperty, SymmetricBoundedReflexive) {
  CharSim sim = std::get<1>(GetParam());
  const std::vector<std::string> samples = {
      "",          "a",         "brown",     "browne",
      "Qingming",  "Qing-Hu",   "guest editorial",
      "2003",      "VLDBJ",     "lineage tracing for data warehouses"};
  for (const auto& x : samples) {
    EXPECT_DOUBLE_EQ(sim(x, x), 1.0) << x;
    for (const auto& y : samples) {
      double v = sim(x, y);
      EXPECT_GE(v, 0.0) << x << " / " << y;
      EXPECT_LE(v, 1.0) << x << " / " << y;
      EXPECT_DOUBLE_EQ(v, sim(y, x)) << x << " / " << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCharMeasures, CharSimilarityProperty,
    ::testing::Values(
        std::make_tuple("levenshtein", &LevenshteinSimilarity),
        std::make_tuple("hamming", &HammingSimilarity),
        std::make_tuple("jaro", &JaroSimilarity),
        std::make_tuple("jaro_winkler", &JaroWinklerSimilarity),
        std::make_tuple("needleman_wunsch", &NeedlemanWunschSimilarity),
        std::make_tuple("smith_waterman", &SmithWatermanSimilarity),
        std::make_tuple("prefix", &PrefixSimilarity),
        std::make_tuple("exact", &ExactMatchSimilarity)),
    [](const auto& info) { return std::get<0>(info.param); });

}  // namespace
}  // namespace fairem
