#ifndef FAIREM_MATCHER_DEEPMATCHER_H_
#define FAIREM_MATCHER_DEEPMATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/matcher/neural_base.h"
#include "src/nn/gru.h"

namespace fairem {

/// The hybrid (RNN + attention) DeepMatcher model of Table 3 [43]: for each
/// matching attribute, both value token sequences are embedded, summarized
/// by a shared frozen GRU, and soft-aligned with decomposable attention;
/// the per-attribute comparison features (GRU-summary cosine, alignment
/// similarity, bag-of-embeddings cosine) feed the trainable head. Attribute
/// structure is preserved — the trait that makes DeepMatcher-style models
/// competitive on structured data. A record's per-attribute GRU means are
/// its summary, computed once per batch.
class DeepMatcherMatcher : public NeuralMatcherBase {
 public:
  DeepMatcherMatcher();

  std::string name() const override { return "DeepMatcher"; }

 protected:
  Status InitEncoder(const EMDataset& dataset, Rng* rng) override;
  Result<std::vector<float>> EncodePair(const EMDataset& dataset,
                                        const RecordSummaries& summaries,
                                        size_t left,
                                        size_t right) const override;
  size_t SummaryWidth(const EMDataset& dataset) const override;
  Status SummarizeRecord(const Table& table, size_t row,
                         const std::vector<std::string>& attrs,
                         float* out) const override;

 private:
  static constexpr int kHiddenDim = 24;
  std::unique_ptr<nn::GruCell> gru_;
};

}  // namespace fairem

#endif  // FAIREM_MATCHER_DEEPMATCHER_H_
