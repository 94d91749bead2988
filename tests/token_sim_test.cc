#include "src/text/token_sim.h"

#include <gtest/gtest.h>

#include <tuple>

namespace fairem {
namespace {

using Tokens = std::vector<std::string>;

TEST(JaccardTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a"}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "a", "b"}, {"a", "b"}), 1.0);
}

TEST(DiceTest, KnownValues) {
  EXPECT_DOUBLE_EQ(DiceSimilarity({"a", "b"}, {"b", "c"}), 0.5);
  EXPECT_DOUBLE_EQ(DiceSimilarity({}, {}), 1.0);
}

TEST(OverlapTest, MinNormalization) {
  EXPECT_DOUBLE_EQ(OverlapCoefficient({"a"}, {"a", "b", "c"}), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({}, {"a"}), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({}, {}), 1.0);
}

TEST(CosineTest, GeometricMeanNormalization) {
  // |inter| = 1, |A| = 1, |B| = 4 -> 1/2.
  EXPECT_DOUBLE_EQ(CosineTokenSimilarity({"a"}, {"a", "b", "c", "d"}), 0.5);
  EXPECT_DOUBLE_EQ(CosineTokenSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(CosineTokenSimilarity({"x"}, {}), 0.0);
}

using SetSim = double (*)(const Tokens&, const Tokens&);

class TokenSimilarityProperty
    : public ::testing::TestWithParam<std::tuple<const char*, SetSim>> {};

TEST_P(TokenSimilarityProperty, SymmetricBoundedReflexive) {
  SetSim sim = std::get<1>(GetParam());
  const std::vector<Tokens> samples = {
      {},
      {"a"},
      {"lineage", "tracing"},
      {"data", "warehouse", "transformations"},
      {"guest", "editorial"},
      {"a", "b", "c", "d", "e"},
  };
  for (const auto& x : samples) {
    EXPECT_DOUBLE_EQ(sim(x, x), 1.0);
    for (const auto& y : samples) {
      double v = sim(x, y);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      EXPECT_DOUBLE_EQ(v, sim(y, x));
    }
  }
}

TEST_P(TokenSimilarityProperty, DisjointSetsScoreZero) {
  SetSim sim = std::get<1>(GetParam());
  EXPECT_DOUBLE_EQ(sim({"a", "b"}, {"c", "d"}), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTokenMeasures, TokenSimilarityProperty,
    ::testing::Values(std::make_tuple("jaccard", &JaccardSimilarity),
                      std::make_tuple("dice", &DiceSimilarity),
                      std::make_tuple("overlap", &OverlapCoefficient),
                      std::make_tuple("cosine", &CosineTokenSimilarity)),
    [](const auto& info) { return std::get<0>(info.param); });

}  // namespace
}  // namespace fairem
