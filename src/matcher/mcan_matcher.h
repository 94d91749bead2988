#ifndef FAIREM_MATCHER_MCAN_MATCHER_H_
#define FAIREM_MATCHER_MCAN_MATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/matcher/neural_base.h"
#include "src/nn/gru.h"
#include "src/nn/vecops.h"

namespace fairem {

/// The MCAN model of Table 3 [67]: RNN encoding with multi-context
/// attention — self-attention (within an attribute), pair-attention
/// (across the two records' attribute values), global-attention (over the
/// whole record), combined through a gating mechanism that mixes the
/// contexts per attribute. A record's whole-record GRU mean is its summary,
/// computed once per batch.
class McanMatcher : public NeuralMatcherBase {
 public:
  McanMatcher();

  std::string name() const override { return "MCAN"; }

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
  static constexpr int kHiddenDim = 20;
  std::unique_ptr<nn::GruCell> gru_;
  /// Frozen gating direction: mixes self/pair/global context similarities.
  nn::Vec gate_;
};

}  // namespace fairem

#endif  // FAIREM_MATCHER_MCAN_MATCHER_H_
