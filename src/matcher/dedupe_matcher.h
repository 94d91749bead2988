#ifndef FAIREM_MATCHER_DEDUPE_MATCHER_H_
#define FAIREM_MATCHER_DEDUPE_MATCHER_H_

#include <memory>
#include <vector>

#include "src/matcher/ml_matchers.h"
#include "src/ml/linear_models.h"

namespace fairem {

/// Model of Dedupe [28]: a regularized logistic regression over distance
/// features followed by agglomerative hierarchical clustering of records;
/// pairs landing in the same cluster get their scores lifted to at least
/// the cluster linkage score (transitive closure smoothing). The features
/// and the regression are FeatureClassifierMatcher's, so Dedupe fits and
/// predicts on the same shared tables as the six classifiers.
///
/// Mirroring the paper's protocol (§5.1.4): active labelling is bypassed by
/// training on the full labelled train split, and the matcher "does not
/// scale" to datasets past a size cutoff or with a single textual attribute
/// (FacultyMatch, NoFlyCompas, Shoes, Cameras) — SupportsDataset returns
/// false there and benches print "-".
class DedupeMatcher : public FeatureClassifierMatcher {
 public:
  DedupeMatcher()
      : FeatureClassifierMatcher(
            "Dedupe",
            std::make_unique<LogisticRegression>(LinearOptions{.l2 = 1e-2})) {}

  /// The regression's scores, then the clustering pass over `pairs`.
  Result<std::vector<double>> PredictScores(
      const EMDataset& dataset,
      const std::vector<LabeledPair>& pairs) const override;
  bool SupportsDataset(const EMDataset& dataset) const override;

  /// Rows-per-table threshold above which the matcher declares itself
  /// unscalable.
  static constexpr size_t kMaxRows = 5000;

  /// Full-scale labelled-pair threshold (per EMDataset's
  /// simulated_full_scale_pairs) above which the matcher declares itself
  /// unscalable, mirroring the paper's protocol.
  static constexpr size_t kMaxFullScalePairs = 50000;

 private:
  /// Agglomerative linkage threshold for the clustering pass.
  double cluster_threshold_ = 0.5;
};

}  // namespace fairem

#endif  // FAIREM_MATCHER_DEDUPE_MATCHER_H_
