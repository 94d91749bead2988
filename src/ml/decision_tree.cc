#include "src/ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/logging.h"

namespace fairem {
namespace {

double GiniFromCounts(double pos, double total) {
  if (total <= 0.0) return 0.0;
  double p = pos / total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

Status DecisionTree::Fit(const std::vector<std::vector<double>>& x,
                         const std::vector<int>& y, Rng* rng) {
  FAIREM_RETURN_NOT_OK(ValidateTrainingData(x, y));
  nodes_.clear();
  std::vector<size_t> indices(x.size());
  for (size_t i = 0; i < x.size(); ++i) indices[i] = i;
  BuildNode(x, y, indices, 0, rng);
  fitted_ = true;
  return Status::OK();
}

int DecisionTree::BuildNode(const std::vector<std::vector<double>>& x,
                            const std::vector<int>& y,
                            std::vector<size_t>& indices, int depth,
                            Rng* rng) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  double pos = 0.0;
  for (size_t i : indices) pos += y[i];
  const double total = static_cast<double>(indices.size());
  nodes_[node_id].score = total > 0.0 ? pos / total : 0.0;

  const bool pure = (pos == 0.0 || pos == total);
  if (pure || depth >= options_.max_depth ||
      indices.size() < static_cast<size_t>(options_.min_samples_split)) {
    return node_id;
  }

  const size_t dim = x[0].size();
  // Candidate features (optionally a random subset for forests).
  std::vector<size_t> features;
  if (options_.max_features > 0 &&
      static_cast<size_t>(options_.max_features) < dim) {
    features =
        rng->SampleWithoutReplacement(dim, static_cast<size_t>(options_.max_features));
  } else {
    features.resize(dim);
    for (size_t f = 0; f < dim; ++f) features[f] = f;
  }

  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;
  const double parent_gini = GiniFromCounts(pos, total);

  std::vector<std::pair<double, int>> sorted_vals;
  sorted_vals.reserve(indices.size());
  for (size_t f : features) {
    sorted_vals.clear();
    for (size_t i : indices) {
      sorted_vals.emplace_back(x[i][f], y[i]);
    }
    std::sort(sorted_vals.begin(), sorted_vals.end());
    // Sweep split points between distinct consecutive values.
    double left_pos = 0.0;
    for (size_t k = 0; k + 1 < sorted_vals.size(); ++k) {
      left_pos += sorted_vals[k].second;
      if (sorted_vals[k].first == sorted_vals[k + 1].first) continue;
      double left_n = static_cast<double>(k + 1);
      double right_n = total - left_n;
      if (left_n < options_.min_samples_leaf ||
          right_n < options_.min_samples_leaf) {
        continue;
      }
      double right_pos = pos - left_pos;
      double weighted =
          (left_n / total) * GiniFromCounts(left_pos, left_n) +
          (right_n / total) * GiniFromCounts(right_pos, right_n);
      double gain = parent_gini - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (sorted_vals[k].first + sorted_vals[k + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<size_t> left_idx;
  std::vector<size_t> right_idx;
  for (size_t i : indices) {
    if (x[i][static_cast<size_t>(best_feature)] <= best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  if (left_idx.empty() || right_idx.empty()) return node_id;

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  int left_child = BuildNode(x, y, left_idx, depth + 1, rng);
  int right_child = BuildNode(x, y, right_idx, depth + 1, rng);
  nodes_[node_id].left = left_child;
  nodes_[node_id].right = right_child;
  return node_id;
}

double DecisionTree::PredictScore(const std::vector<double>& x) const {
  FAIREM_CHECK(fitted_, "DecisionTree::PredictScore before Fit");
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    size_t f = static_cast<size_t>(n.feature);
    double v = f < x.size() ? x[f] : 0.0;
    node = v <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(node)].score;
}

}  // namespace fairem
