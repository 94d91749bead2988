#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/attention.h"
#include "src/nn/gru.h"
#include "src/nn/mlp.h"
#include "src/nn/vecops.h"

namespace fairem {
namespace nn {
namespace {

TEST(VecOpsTest, DotNormCosine) {
  Vec a = {1.0f, 0.0f};
  Vec b = {0.0f, 1.0f};
  EXPECT_FLOAT_EQ(Dot(a, b), 0.0f);
  EXPECT_FLOAT_EQ(Norm(a), 1.0f);
  EXPECT_FLOAT_EQ(Cosine(a, a), 1.0f);
  EXPECT_FLOAT_EQ(Cosine(a, b), 0.0f);
  Vec zero = {0.0f, 0.0f};
  EXPECT_FLOAT_EQ(Cosine(a, zero), 0.0f);
}

TEST(VecOpsTest, SoftmaxSumsToOne) {
  std::vector<float> logits = {1.0f, 2.0f, 3.0f};
  SoftmaxInPlace(&logits);
  float sum = logits[0] + logits[1] + logits[2];
  EXPECT_NEAR(sum, 1.0f, 1e-6);
  EXPECT_GT(logits[2], logits[1]);
  EXPECT_GT(logits[1], logits[0]);
  std::vector<float> empty;
  SoftmaxInPlace(&empty);  // no crash
}

TEST(VecOpsTest, SoftmaxNumericallyStable) {
  std::vector<float> logits = {1000.0f, 1001.0f};
  SoftmaxInPlace(&logits);
  EXPECT_FALSE(std::isnan(logits[0]));
  EXPECT_NEAR(logits[0] + logits[1], 1.0f, 1e-6);
}

TEST(VecOpsTest, MeanOfVectors) {
  Vec m = Mean({{1.0f, 2.0f}, {3.0f, 4.0f}}, 2);
  EXPECT_FLOAT_EQ(m[0], 2.0f);
  EXPECT_FLOAT_EQ(m[1], 3.0f);
  Vec empty = Mean({}, 2);
  EXPECT_FLOAT_EQ(empty[0], 0.0f);
}

TEST(AttentionTest, SingleKeyReturnsItsValue) {
  Vec query = {1.0f, 0.0f};
  Vec out = Attend(query, {{0.5f, 0.5f}});
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
}

TEST(AttentionTest, AttendsToMostSimilarKey) {
  Vec query = {1.0f, 0.0f};
  Vec out = Attend(query, {{10.0f, 0.0f}, {0.0f, 10.0f}});
  EXPECT_GT(out[0], out[1]);
}

TEST(AttentionTest, EmptyKeysYieldZero) {
  Vec out = Attend({1.0f, 2.0f}, {});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
}

TEST(AttentionTest, AlignmentSimilarityEdgeCases) {
  EXPECT_FLOAT_EQ(AlignmentSimilarity({}, {}), 1.0f);
  EXPECT_FLOAT_EQ(AlignmentSimilarity({{1.0f}}, {}), 0.0f);
  // Identical singleton lists align perfectly.
  EXPECT_NEAR(AlignmentSimilarity({{1.0f, 0.0f}}, {{1.0f, 0.0f}}), 1.0f,
              1e-6);
}

TEST(GruTest, DeterministicAndShapeCorrect) {
  Rng rng1(5);
  Rng rng2(5);
  GruCell g1(4, 8, &rng1);
  GruCell g2(4, 8, &rng2);
  std::vector<Vec> seq = {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}};
  Vec h1 = g1.RunMean(seq);
  Vec h2 = g2.RunMean(seq);
  ASSERT_EQ(h1.size(), 8u);
  for (size_t i = 0; i < h1.size(); ++i) EXPECT_FLOAT_EQ(h1[i], h2[i]);
}

TEST(GruTest, EmptySequenceGivesZeroState) {
  Rng rng(5);
  GruCell g(4, 6, &rng);
  Vec m = g.RunMean({});
  ASSERT_EQ(m.size(), 6u);
  for (float v : m) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(GruTest, OrderSensitive) {
  Rng rng(5);
  GruCell g(2, 8, &rng);
  std::vector<Vec> ab = {{1, 0}, {0, 1}};
  std::vector<Vec> ba = {{0, 1}, {1, 0}};
  Vec h_ab = g.RunMean(ab);
  Vec h_ba = g.RunMean(ba);
  float diff = 0.0f;
  for (size_t i = 0; i < h_ab.size(); ++i) {
    diff += std::fabs(h_ab[i] - h_ba[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(GruTest, StatesStayBounded) {
  Rng rng(9);
  GruCell g(3, 5, &rng);
  const Vec x = {1.0f, -1.0f, 0.5f};
  Vec h(5, 0.0f);
  for (int step = 0; step < 200; ++step) {
    h = g.Step(x, h);
    for (float v : h) {
      EXPECT_GE(v, -1.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(MlpTest, LearnsXor) {
  // XOR requires the hidden layer: a real nonlinearity test.
  std::vector<std::vector<float>> x = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  std::vector<int> y = {0, 1, 1, 0};
  MlpOptions options;
  options.hidden = {8};
  options.epochs = 800;
  options.learning_rate = 0.05;
  options.positive_fraction = 0.5;
  Mlp mlp(options);
  Rng rng(21);
  ASSERT_TRUE(mlp.Fit(x, y, &rng).ok());
  EXPECT_LT(mlp.Predict({0, 0}), 0.5);
  EXPECT_GT(mlp.Predict({0, 1}), 0.5);
  EXPECT_GT(mlp.Predict({1, 0}), 0.5);
  EXPECT_LT(mlp.Predict({1, 1}), 0.5);
}

TEST(MlpTest, GradientMatchesFiniteDifference) {
  MlpOptions options;
  options.hidden = {5};
  Mlp mlp(options);
  Rng rng(31);
  mlp.InitWeights(3, &rng);
  std::vector<float> x = {0.3f, -0.7f, 1.2f};
  std::vector<double> grad;
  mlp.LossAndGradients(x, 1, &grad);
  constexpr double kEps = 1e-5;
  for (size_t p = 0; p < mlp.params().size(); p += 3) {
    double original = mlp.params()[p];
    mlp.params()[p] = original + kEps;
    double plus = mlp.LossAndGradients(x, 1, nullptr);
    mlp.params()[p] = original - kEps;
    double minus = mlp.LossAndGradients(x, 1, nullptr);
    mlp.params()[p] = original;
    double numeric = (plus - minus) / (2 * kEps);
    EXPECT_NEAR(grad[p], numeric, 1e-4) << "param " << p;
  }
}

TEST(MlpTest, RejectsBadInput) {
  Mlp mlp;
  Rng rng(1);
  EXPECT_FALSE(mlp.Fit({}, {}, &rng).ok());
  EXPECT_FALSE(mlp.Fit({{1.0f}}, {1, 0}, &rng).ok());
}

TEST(MlpTest, PredictionsBounded) {
  Mlp mlp;
  Rng rng(41);
  std::vector<std::vector<float>> x = {{0.1f}, {0.9f}};
  std::vector<int> y = {0, 1};
  ASSERT_TRUE(mlp.Fit(x, y, &rng).ok());
  for (float v = -5.0f; v <= 5.0f; v += 0.5f) {
    double p = mlp.Predict({v});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace nn
}  // namespace fairem
