#include "src/ml/metrics.h"

#include <gtest/gtest.h>

namespace fairem {
namespace {

ConfusionCounts Sample() {
  // tp=6 fp=2 tn=10 fn=2
  ConfusionCounts c;
  c.tp = 6;
  c.fp = 2;
  c.tn = 10;
  c.fn = 2;
  return c;
}

TEST(ConfusionTest, AddClassifiesOutcomes) {
  ConfusionCounts c;
  c.Add(true, true);    // TP
  c.Add(true, false);   // FP
  c.Add(false, true);   // FN
  c.Add(false, false);  // TN
  EXPECT_EQ(c.tp, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.tn, 1);
  EXPECT_EQ(c.total(), 4);
}

TEST(ConfusionTest, MergeSums) {
  ConfusionCounts a = Sample();
  ConfusionCounts b = Sample();
  a.Merge(b);
  EXPECT_EQ(a.tp, 12);
  EXPECT_EQ(a.total(), 40);
}

TEST(MetricsTest, KnownValues) {
  ConfusionCounts c = Sample();
  EXPECT_DOUBLE_EQ(*Accuracy(c), 0.8);
  EXPECT_DOUBLE_EQ(*F1Score(c), 0.75);
  EXPECT_DOUBLE_EQ(*TruePositiveRate(c), 0.75);
  EXPECT_NEAR(*FalsePositiveRate(c), 2.0 / 12.0, 1e-12);
  EXPECT_NEAR(*TrueNegativeRate(c), 10.0 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(*FalseNegativeRate(c), 0.25);
  EXPECT_DOUBLE_EQ(*PositivePredictiveValue(c), 0.75);
  EXPECT_NEAR(*NegativePredictiveValue(c), 10.0 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(*FalseDiscoveryRate(c), 0.25);
  EXPECT_NEAR(*FalseOmissionRate(c), 2.0 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(*PositivePredictionRate(c), 0.4);
}

TEST(MetricsTest, ComplementaryPairsSumToOne) {
  ConfusionCounts c = Sample();
  EXPECT_NEAR(*TruePositiveRate(c) + *FalseNegativeRate(c), 1.0, 1e-12);
  EXPECT_NEAR(*TrueNegativeRate(c) + *FalsePositiveRate(c), 1.0, 1e-12);
  EXPECT_NEAR(*PositivePredictiveValue(c) + *FalseDiscoveryRate(c), 1.0,
              1e-12);
  EXPECT_NEAR(*NegativePredictiveValue(c) + *FalseOmissionRate(c), 1.0,
              1e-12);
}

TEST(MetricsTest, EmptyDenominatorsAreUndefined) {
  ConfusionCounts no_positives;
  no_positives.tn = 5;
  EXPECT_TRUE(TruePositiveRate(no_positives).status().IsUndefinedStatistic());
  EXPECT_TRUE(
      PositivePredictiveValue(no_positives).status().IsUndefinedStatistic());
  EXPECT_TRUE(FalseDiscoveryRate(no_positives).status()
                  .IsUndefinedStatistic());
  ConfusionCounts empty;
  EXPECT_TRUE(Accuracy(empty).status().IsUndefinedStatistic());
  EXPECT_TRUE(PositivePredictionRate(empty).status().IsUndefinedStatistic());
}

TEST(MetricsTest, AllMatchesDataset) {
  // The Cricket regime: nearly everything is a true match.
  ConfusionCounts c;
  c.tp = 95;
  c.fn = 5;
  EXPECT_DOUBLE_EQ(*Accuracy(c), 0.95);
  EXPECT_DOUBLE_EQ(*TruePositiveRate(c), 0.95);
  EXPECT_TRUE(FalsePositiveRate(c).status().IsUndefinedStatistic());
  // NPV is defined (the 5 false negatives are predicted non-matches) and
  // zero: none of the predicted non-matches is a true non-match.
  EXPECT_DOUBLE_EQ(*NegativePredictiveValue(c), 0.0);
}

}  // namespace
}  // namespace fairem
