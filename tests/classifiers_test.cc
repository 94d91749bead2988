#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/ml/classifier.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear_models.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"

namespace fairem {
namespace {

/// A linearly separable 2-d problem: positives cluster at (0.9, 0.8),
/// negatives at (0.2, 0.1), with some spread.
void MakeSeparable(std::vector<std::vector<double>>* x, std::vector<int>* y,
                   int n_per_class, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < n_per_class; ++i) {
    x->push_back({0.9 + 0.05 * rng.NextGaussian(),
                  0.8 + 0.05 * rng.NextGaussian()});
    y->push_back(1);
    x->push_back({0.2 + 0.05 * rng.NextGaussian(),
                  0.1 + 0.05 * rng.NextGaussian()});
    y->push_back(0);
  }
}

double AccuracyOf(const Classifier& clf,
                  const std::vector<std::vector<double>>& x,
                  const std::vector<int>& y) {
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    int pred = clf.PredictScore(x[i]) >= 0.5 ? 1 : 0;
    if (pred == y[i]) ++correct;
  }
  return static_cast<double>(correct) / x.size();
}

using Factory = std::function<std::unique_ptr<Classifier>()>;

class ClassifierProperty
    : public ::testing::TestWithParam<std::pair<const char*, Factory>> {};

TEST_P(ClassifierProperty, LearnsSeparableData) {
  std::unique_ptr<Classifier> clf = GetParam().second();
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeSeparable(&x, &y, 60, 11);
  Rng rng(5);
  ASSERT_TRUE(clf->Fit(x, y, &rng).ok());
  std::vector<std::vector<double>> xt;
  std::vector<int> yt;
  MakeSeparable(&xt, &yt, 30, 77);
  EXPECT_GE(AccuracyOf(*clf, xt, yt), 0.95) << clf->name();
}

TEST_P(ClassifierProperty, ScoresBounded) {
  std::unique_ptr<Classifier> clf = GetParam().second();
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeSeparable(&x, &y, 40, 13);
  Rng rng(7);
  ASSERT_TRUE(clf->Fit(x, y, &rng).ok());
  Rng probe(17);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> v = {probe.NextDouble(-2, 2), probe.NextDouble(-2, 2)};
    double s = clf->PredictScore(v);
    EXPECT_GE(s, 0.0) << clf->name();
    EXPECT_LE(s, 1.0) << clf->name();
  }
}

TEST_P(ClassifierProperty, RejectsBadInput) {
  std::unique_ptr<Classifier> clf = GetParam().second();
  Rng rng(1);
  std::vector<std::vector<double>> empty;
  std::vector<int> no_labels;
  EXPECT_FALSE(clf->Fit(empty, no_labels, &rng).ok());
  std::vector<std::vector<double>> x = {{1.0}, {2.0}};
  std::vector<int> wrong_count = {1};
  EXPECT_FALSE(clf->Fit(x, wrong_count, &rng).ok());
  std::vector<std::vector<double>> ragged = {{1.0}, {2.0, 3.0}};
  std::vector<int> y = {0, 1};
  EXPECT_FALSE(clf->Fit(ragged, y, &rng).ok());
  std::vector<int> bad_labels = {0, 7};
  std::vector<std::vector<double>> ok_x = {{1.0}, {2.0}};
  EXPECT_FALSE(clf->Fit(ok_x, bad_labels, &rng).ok());
}

TEST_P(ClassifierProperty, DeterministicForSeed) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeSeparable(&x, &y, 40, 3);
  auto run = [&] {
    std::unique_ptr<Classifier> clf = GetParam().second();
    Rng rng(123);
    EXPECT_TRUE(clf->Fit(x, y, &rng).ok());
    std::vector<double> scores;
    for (const auto& row : x) scores.push_back(clf->PredictScore(row));
    return scores;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    AllClassifiers, ClassifierProperty,
    ::testing::Values(
        std::make_pair("decision_tree",
                       Factory([] {
                         return std::unique_ptr<Classifier>(
                             std::make_unique<DecisionTree>());
                       })),
        std::make_pair("random_forest",
                       Factory([] {
                         return std::unique_ptr<Classifier>(
                             std::make_unique<RandomForest>());
                       })),
        std::make_pair("logistic_regression",
                       Factory([] {
                         return std::unique_ptr<Classifier>(
                             std::make_unique<LogisticRegression>());
                       })),
        std::make_pair("linear_regression",
                       Factory([] {
                         return std::unique_ptr<Classifier>(
                             std::make_unique<LinearRegression>());
                       })),
        std::make_pair("naive_bayes",
                       Factory([] {
                         return std::unique_ptr<Classifier>(
                             std::make_unique<GaussianNaiveBayes>());
                       })),
        std::make_pair("svm", Factory([] {
                         return std::unique_ptr<Classifier>(
                             std::make_unique<Svm>());
                       }))),
    [](const auto& info) { return std::string(info.param.first); });

TEST(DecisionTreeTest, PureLeafScores) {
  DecisionTree tree;
  std::vector<std::vector<double>> x = {{0.0}, {0.1}, {0.9}, {1.0}};
  std::vector<int> y = {0, 0, 1, 1};
  Rng rng(2);
  ASSERT_TRUE(tree.Fit(x, y, &rng).ok());
  EXPECT_DOUBLE_EQ(tree.PredictScore({0.05}), 0.0);
  EXPECT_DOUBLE_EQ(tree.PredictScore({0.95}), 1.0);
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(DecisionTreeTest, ConstantLabelsYieldConstantScore) {
  DecisionTree tree;
  std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
  std::vector<int> y = {1, 1, 1};
  Rng rng(4);
  ASSERT_TRUE(tree.Fit(x, y, &rng).ok());
  EXPECT_DOUBLE_EQ(tree.PredictScore({0.3}), 1.0);
}

TEST(RandomForestTest, BuildsRequestedTrees) {
  RandomForestOptions options;
  options.num_trees = 7;
  RandomForest forest(options);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeSeparable(&x, &y, 30, 21);
  Rng rng(6);
  ASSERT_TRUE(forest.Fit(x, y, &rng).ok());
  EXPECT_EQ(forest.num_trees(), 7u);
}

TEST(NaiveBayesTest, RequiresBothClasses) {
  GaussianNaiveBayes nb;
  std::vector<std::vector<double>> x = {{0.1}, {0.2}};
  std::vector<int> y = {1, 1};
  Rng rng(8);
  EXPECT_FALSE(nb.Fit(x, y, &rng).ok());
}

TEST(LinearRegressionTest, FitsExactLine) {
  // y = x exactly: closed-form solution should recover it.
  LinearRegression lr;
  std::vector<std::vector<double>> x = {{0.0}, {1.0}, {0.2}, {0.9}};
  std::vector<int> y = {0, 1, 0, 1};
  Rng rng(10);
  ASSERT_TRUE(lr.Fit(x, y, &rng).ok());
  EXPECT_GT(lr.PredictScore({1.0}), 0.8);
  EXPECT_LT(lr.PredictScore({0.0}), 0.2);
}

TEST(SvmTest, MarginSignMatchesClass) {
  Svm svm;
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeSeparable(&x, &y, 50, 15);
  Rng rng(12);
  ASSERT_TRUE(svm.Fit(x, y, &rng).ok());
  EXPECT_GT(svm.Margin({0.9, 0.8}), 0.0);
  EXPECT_LT(svm.Margin({0.2, 0.1}), 0.0);
}

TEST(ImbalanceTest, GradientModelsStillFindRarePositives) {
  // 2% positives, separable: the balanced options must prevent collapse.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng gen(33);
  for (int i = 0; i < 1000; ++i) {
    x.push_back({0.2 + 0.05 * gen.NextGaussian()});
    y.push_back(0);
  }
  for (int i = 0; i < 20; ++i) {
    x.push_back({0.9 + 0.02 * gen.NextGaussian()});
    y.push_back(1);
  }
  LogisticRegression logreg;
  Rng rng(1);
  ASSERT_TRUE(logreg.Fit(x, y, &rng).ok());
  EXPECT_GT(logreg.PredictScore({0.9}), 0.5);
  EXPECT_LT(logreg.PredictScore({0.2}), 0.5);
  Svm svm;
  Rng rng2(2);
  ASSERT_TRUE(svm.Fit(x, y, &rng2).ok());
  EXPECT_GT(svm.PredictScore({0.9}), 0.5);
  EXPECT_LT(svm.PredictScore({0.2}), 0.5);
}

}  // namespace
}  // namespace fairem
