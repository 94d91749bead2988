#ifndef FAIREM_MATCHER_HIER_MATCHER_H_
#define FAIREM_MATCHER_HIER_MATCHER_H_

#include <string>
#include <vector>

#include "src/matcher/neural_base.h"
#include "src/nn/vecops.h"

namespace fairem {

/// The HierMatcher model of Table 3 [27]: a token → attribute → record
/// hierarchy. Cross-attribute token alignment matches every token of one
/// record against all tokens of the other (not only the same attribute);
/// attribute-aware attention then weights token similarities into
/// attribute-level comparisons, and record-level aggregates feed the head.
/// Its reliance on embedding-space token similarity is the trait behind
/// the "efficient ≈ effective" false positives of §5.3.3.
class HierMatcherMatcher : public NeuralMatcherBase {
 public:
  HierMatcherMatcher();

  std::string name() const override { return "HierMatcher"; }

 protected:
  Status InitEncoder(const EMDataset& dataset, Rng* rng) override;
  Result<std::vector<float>> EncodePair(const EMDataset& dataset,
                                        const RecordSummaries& summaries,
                                        size_t left,
                                        size_t right) const override;

 private:
  /// Attribute-aware attention vector (frozen): one weight direction per
  /// attribute scoring token relevance.
  std::vector<nn::Vec> attr_attention_;
};

}  // namespace fairem

#endif  // FAIREM_MATCHER_HIER_MATCHER_H_
