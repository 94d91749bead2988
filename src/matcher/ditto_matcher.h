#ifndef FAIREM_MATCHER_DITTO_MATCHER_H_
#define FAIREM_MATCHER_DITTO_MATCHER_H_

#include <string>
#include <vector>

#include "src/matcher/neural_base.h"

namespace fairem {

/// The DITTO model of Table 3 [38]: both records are serialized into one
/// "[COL] a [VAL] v ..." token block and encoded with the pre-trained
/// language-model stand-in (SIF + self-attention pooling). Comparison is
/// purely at the sequence level — attribute structure is merged away, the
/// behaviour §5.3.3 identifies as DITTO's structured-data weakness. The
/// DITTO optimizations are modelled: sequence summarization (keep the
/// max_tokens highest-IDF-weight prefix), domain-knowledge injection
/// (attribute-name tokens stay in the stream), and training-time data
/// augmentation (random token dropout).
class DittoMatcher : public NeuralMatcherBase {
 public:
  DittoMatcher();

  std::string name() const override { return "Ditto"; }

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
  /// Sequence summarization cap.
  static constexpr size_t kMaxTokens = 48;
  /// Augmentation dropout probability.
  static constexpr double kDropout = 0.1;

  Result<std::vector<float>> Encode(const EMDataset& dataset, size_t left,
                                    size_t right, Rng* augment_rng) const;
};

}  // namespace fairem

#endif  // FAIREM_MATCHER_DITTO_MATCHER_H_
