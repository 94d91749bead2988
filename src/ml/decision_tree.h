#ifndef FAIREM_ML_DECISION_TREE_H_
#define FAIREM_ML_DECISION_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ml/classifier.h"

namespace fairem {

/// Hyper-parameters shared by DecisionTree and RandomForest.
struct TreeOptions {
  int max_depth = 8;
  int min_samples_leaf = 2;
  int min_samples_split = 4;
  /// If > 0, each split considers only this many random features (set by
  /// RandomForest; 0 = consider all).
  int max_features = 0;
};

/// CART decision tree with Gini impurity. Leaf scores are the fraction of
/// positive training examples at the leaf, which yields a calibrated
/// confidence for thresholding.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(TreeOptions options = {}) : options_(options) {}

  std::string name() const override { return "decision_tree"; }

  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<int>& y, Rng* rng) override;

  double PredictScore(const std::vector<double>& x) const override;

  /// Number of nodes in the fitted tree (0 before Fit). Exposed for tests.
  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    int feature = -1;       // -1 for leaf
    double threshold = 0.0;  // go left if x[feature] <= threshold
    double score = 0.0;      // leaf positive fraction
    int left = -1;
    int right = -1;
  };

  int BuildNode(const std::vector<std::vector<double>>& x,
                const std::vector<int>& y, std::vector<size_t>& indices,
                int depth, Rng* rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
  bool fitted_ = false;
};

}  // namespace fairem

#endif  // FAIREM_ML_DECISION_TREE_H_
