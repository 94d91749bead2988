#ifndef FAIREM_MATCHER_GNEM_MATCHER_H_
#define FAIREM_MATCHER_GNEM_MATCHER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/matcher/neural_base.h"

namespace fairem {

/// The GNEM model of Table 3 [18]: the only one-to-set matcher. Candidate
/// pairs are nodes of a graph; pairs sharing a record are neighbours. Each
/// node carries a sequence-level comparison vector; one graph-convolution
/// round averages neighbour features, and the head classifies
/// [own features ‖ neighbourhood mean]. PredictScores exploits the whole
/// candidate set (the one-to-set view); scoring a single pair in isolation
/// degenerates to an empty neighbourhood.
class GnemMatcher : public NeuralMatcherBase {
 public:
  GnemMatcher();

  std::string name() const override { return "GNEM"; }

  Result<std::vector<double>> PredictScores(
      const EMDataset& dataset,
      const std::vector<LabeledPair>& pairs) const override;

 protected:
  Status InitEncoder(const EMDataset& dataset, Rng* rng) override;
  Result<std::vector<float>> EncodePair(const EMDataset& dataset,
                                        const RecordSummaries& summaries,
                                        size_t left,
                                        size_t right) const override;
  Result<std::vector<float>> EncodePairForTraining(
      const EMDataset& dataset, const RecordSummaries& summaries, size_t left,
      size_t right, Rng* rng) const override;

 private:
  /// Node features before graph convolution.
  Result<std::vector<float>> NodeFeatures(const EMDataset& dataset,
                                          size_t left, size_t right) const;

  /// Builds graph-convolved features for a batch of pairs.
  Result<std::vector<std::vector<float>>> ConvolvedFeatures(
      const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const;

  /// Neighbourhood means of the training pairs, cached during Fit so
  /// training matches the one-to-set semantics.
  std::vector<std::vector<float>> train_features_;
  std::unordered_map<uint64_t, size_t> train_index_;
  bool train_cache_ready_ = false;
};

}  // namespace fairem

#endif  // FAIREM_MATCHER_GNEM_MATCHER_H_
