#include "src/matcher/ml_matchers.h"

#include "src/ml/decision_tree.h"
#include "src/ml/linear_models.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"

namespace fairem {

Status FeatureClassifierMatcher::Fit(const EMDataset& dataset, Rng* rng) {
  if (shared_ == nullptr) {
    if (!SupportsDataset(dataset)) {
      return Status::FailedPrecondition(display_name_ +
                                        " did not scale for dataset '" +
                                        dataset.name + "'");
    }
    FAIREM_ASSIGN_OR_RETURN(own_, BuildDatasetFeatures(dataset));
  }
  const FeatureTable& train = tables().train;
  FAIREM_RETURN_NOT_OK(classifier_->Fit(train.rows, train.labels, rng));
  test_pairs_ = &dataset.test;
  fitted_ = true;
  return Status::OK();
}

Result<double> FeatureClassifierMatcher::ScorePair(const EMDataset& dataset,
                                                   size_t left,
                                                   size_t right) const {
  if (!fitted_) {
    return Status::FailedPrecondition("matcher '" + display_name_ +
                                      "' used before Fit");
  }
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<double> features,
      ExtractFeatures(tables().defs, dataset.table_a, dataset.table_b, left,
                      right));
  return classifier_->PredictScore(features);
}

Result<std::vector<double>> FeatureClassifierMatcher::PredictScores(
    const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const {
  if (!fitted_) {
    return Status::FailedPrecondition("matcher '" + display_name_ +
                                      "' used before Fit");
  }
  if (&pairs == test_pairs_) {
    return classifier_->PredictScores(tables().test.rows);
  }
  FAIREM_ASSIGN_OR_RETURN(FeatureTable table,
                          BuildFeatureTable(tables().defs, dataset.table_a,
                                            dataset.table_b, pairs));
  return classifier_->PredictScores(table.rows);
}

std::unique_ptr<Matcher> MakeDTMatcher() {
  return std::make_unique<FeatureClassifierMatcher>(
      "DTMatcher", std::make_unique<DecisionTree>());
}

std::unique_ptr<Matcher> MakeSvmMatcher() {
  return std::make_unique<FeatureClassifierMatcher>("SVMMatcher",
                                                    std::make_unique<Svm>());
}

std::unique_ptr<Matcher> MakeRFMatcher() {
  return std::make_unique<FeatureClassifierMatcher>(
      "RFMatcher", std::make_unique<RandomForest>());
}

std::unique_ptr<Matcher> MakeLogRegMatcher() {
  return std::make_unique<FeatureClassifierMatcher>(
      "LogRegMatcher", std::make_unique<LogisticRegression>());
}

std::unique_ptr<Matcher> MakeLinRegMatcher() {
  return std::make_unique<FeatureClassifierMatcher>(
      "LinRegMatcher", std::make_unique<LinearRegression>());
}

std::unique_ptr<Matcher> MakeNBMatcher() {
  return std::make_unique<FeatureClassifierMatcher>(
      "NBMatcher", std::make_unique<GaussianNaiveBayes>());
}

}  // namespace fairem
