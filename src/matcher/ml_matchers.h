#ifndef FAIREM_MATCHER_ML_MATCHERS_H_
#define FAIREM_MATCHER_ML_MATCHERS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/feature/feature_gen.h"
#include "src/matcher/matcher.h"
#include "src/ml/classifier.h"

namespace fairem {

/// The Magellan-style non-neural matchers (Table 3): automatic feature
/// generation over the matching attributes, then a traditional classifier.
/// One class parameterized by the classifier covers DTMatcher, SVMMatcher,
/// RFMatcher, LogRegMatcher, LinRegMatcher, and NBMatcher, and is the base
/// of DedupeMatcher.
///
/// Every one of them fits on the same DatasetFeatures (DESIGN.md §22): the
/// train table for Fit, the test table for PredictScores on the fitted
/// dataset's test split. A RunStore builds them once per dataset and hands
/// them over with ShareFeatures; without them Fit builds its own.
class FeatureClassifierMatcher : public Matcher {
 public:
  /// `display_name` follows Table 3 (e.g. "DTMatcher").
  FeatureClassifierMatcher(std::string display_name,
                           std::unique_ptr<Classifier> classifier)
      : display_name_(std::move(display_name)),
        classifier_(std::move(classifier)) {}

  std::string name() const override { return display_name_; }
  MatcherFamily family() const override { return MatcherFamily::kNonNeural; }

  /// The next Fit trains on `features->train` and builds no table; it must
  /// be BuildDatasetFeatures of the dataset passed to Fit, and outlive the
  /// matcher's last PredictScores. The caller has already asked
  /// SupportsDataset.
  void ShareFeatures(const DatasetFeatures* features) { shared_ = features; }

  /// Trains on the shared train table, or, when none was handed over and
  /// SupportsDataset agrees, on a BuildDatasetFeatures of its own.
  Status Fit(const EMDataset& dataset, Rng* rng) override;
  Result<double> ScorePair(const EMDataset& dataset, size_t left,
                           size_t right) const override;

  /// The fitted dataset's test split is scored from the test table; any
  /// other pair list gets one BuildFeatureTable of its own. Either way a
  /// batched classifier predict, byte-identical to ScorePair in pair order.
  Result<std::vector<double>> PredictScores(
      const EMDataset& dataset,
      const std::vector<LabeledPair>& pairs) const override;

  /// The generated feature definitions (after Fit). Exposed so audits can
  /// report which attributes the model leans on.
  const std::vector<FeatureDef>& features() const { return tables().defs; }
  const Classifier& classifier() const { return *classifier_; }

 private:
  const DatasetFeatures& tables() const {
    return shared_ != nullptr ? *shared_ : own_;
  }

  std::string display_name_;
  std::unique_ptr<Classifier> classifier_;
  const DatasetFeatures* shared_ = nullptr;
  DatasetFeatures own_;
  /// The fitted dataset's test split, the pair list `tables().test` scores.
  const std::vector<LabeledPair>* test_pairs_ = nullptr;
  bool fitted_ = false;
};

/// Factory helpers with the paper-default hyper-parameters.
std::unique_ptr<Matcher> MakeDTMatcher();
std::unique_ptr<Matcher> MakeSvmMatcher();
std::unique_ptr<Matcher> MakeRFMatcher();
std::unique_ptr<Matcher> MakeLogRegMatcher();
std::unique_ptr<Matcher> MakeLinRegMatcher();
std::unique_ptr<Matcher> MakeNBMatcher();

}  // namespace fairem

#endif  // FAIREM_MATCHER_ML_MATCHERS_H_
