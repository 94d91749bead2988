#include "src/matcher/dedupe_matcher.h"

#include <algorithm>
#include <numeric>

namespace fairem {
namespace {

/// Union-find over record nodes of both tables (A-rows then B-rows).
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

bool DedupeMatcher::SupportsDataset(const EMDataset& dataset) const {
  if (dataset.table_a.num_rows() > kMaxRows ||
      dataset.table_b.num_rows() > kMaxRows) {
    return false;
  }
  // Scale of the real task this benchmark simulates (Table 4): Dedupe
  // "did not scale" for the two social datasets in the paper.
  if (dataset.simulated_full_scale_pairs > kMaxFullScalePairs) return false;
  // Single long-text attribute (the WDC textual datasets): Dedupe's
  // field-wise distance model has nothing to work with.
  if (dataset.matching_attrs.size() == 1) {
    Result<AttrType> type = InferAttrType(dataset.table_a, dataset.table_b,
                                          dataset.matching_attrs[0]);
    if (type.ok() && *type == AttrType::kLongString) return false;
  }
  return true;
}

Result<std::vector<double>> DedupeMatcher::PredictScores(
    const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const {
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      FeatureClassifierMatcher::PredictScores(dataset, pairs));
  // Agglomerative pass: link every pair whose raw score clears the linkage
  // threshold, then lift the scores of same-cluster pairs to the cluster's
  // minimum linking score (single-linkage transitive closure).
  const size_t offset = dataset.table_a.num_rows();
  UnionFind uf(offset + dataset.table_b.num_rows());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (scores[i] >= cluster_threshold_) {
      uf.Union(pairs[i].left, offset + pairs[i].right);
    }
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (scores[i] < cluster_threshold_ &&
        uf.Find(pairs[i].left) == uf.Find(offset + pairs[i].right)) {
      scores[i] = std::max(scores[i], cluster_threshold_);
    }
  }
  return scores;
}

}  // namespace fairem
