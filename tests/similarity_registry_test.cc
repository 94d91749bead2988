#include "src/text/similarity.h"

#include <gtest/gtest.h>

namespace fairem {
namespace {

class RegistryProperty
    : public ::testing::TestWithParam<SimilarityMeasure> {};

TEST_P(RegistryProperty, BoundedAndSymmetric) {
  SimilarityMeasure m = GetParam();
  const std::vector<std::string> samples = {"",       "3.5",    "2003",
                                            "Brown",  "Browne", "Qingming Huang",
                                            "guest editorial"};
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      double v = ComputeSimilarity(m, a, b);
      EXPECT_GE(v, 0.0) << SimilarityMeasureName(m);
      EXPECT_LE(v, 1.0) << SimilarityMeasureName(m);
      EXPECT_DOUBLE_EQ(v, ComputeSimilarity(m, b, a))
          << SimilarityMeasureName(m) << " not symmetric on '" << a
          << "' / '" << b << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, RegistryProperty,
    ::testing::ValuesIn(std::begin(kAllSimilarityMeasures),
                        std::end(kAllSimilarityMeasures)),
    [](const auto& info) { return SimilarityMeasureName(info.param); });

TEST(RegistryTest, NumericMeasureSemantics) {
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimilarityMeasure::kNumericAbsDiff, "10", "10"), 1.0);
  EXPECT_NEAR(
      ComputeSimilarity(SimilarityMeasure::kNumericAbsDiff, "10", "9"), 0.9,
      1e-9);
  // Non-numeric operands yield 0.
  EXPECT_DOUBLE_EQ(
      ComputeSimilarity(SimilarityMeasure::kNumericAbsDiff, "abc", "10"),
      0.0);
}

TEST(RegistryTest, WordMeasuresIgnoreCaseAndPunctuation) {
  EXPECT_DOUBLE_EQ(ComputeSimilarity(SimilarityMeasure::kJaccardWord,
                                     "Data Integration!", "data integration"),
                   1.0);
}

}  // namespace
}  // namespace fairem
