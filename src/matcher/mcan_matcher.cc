#include "src/matcher/mcan_matcher.h"

#include <algorithm>
#include <cmath>

#include "src/matcher/serialize.h"
#include "src/nn/attention.h"

namespace fairem {
namespace {

float SigmoidF(float z) { return 1.0f / (1.0f + std::exp(-z)); }

}  // namespace

McanMatcher::McanMatcher() : NeuralMatcherBase() {}

Status McanMatcher::InitEncoder(const EMDataset& /*dataset*/, Rng* rng) {
  gru_ = std::make_unique<nn::GruCell>(sentence_encoder().embedding().dim(),
                                       kHiddenDim, rng);
  gate_.assign(3, 0.0f);
  for (float& g : gate_) g = static_cast<float>(rng->NextGaussian());
  return Status::OK();
}

size_t McanMatcher::SummaryWidth(const EMDataset& /*dataset*/) const {
  return kHiddenDim;
}

Status McanMatcher::SummarizeRecord(const Table& table, size_t row,
                                    const std::vector<std::string>& attrs,
                                    float* out) const {
  FAIREM_ASSIGN_OR_RETURN(std::vector<std::string> full,
                          SerializeRecord(table, row, attrs));
  nn::Vec global = gru_->RunMean(sentence_encoder().TokenVectors(full));
  std::copy(global.begin(), global.end(), out);
  return Status::OK();
}

Result<std::vector<float>> McanMatcher::EncodePair(
    const EMDataset& dataset, const RecordSummaries& summaries, size_t left,
    size_t right) const {
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_a,
      PerAttributeTokens(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_b,
      PerAttributeTokens(dataset.table_b, right, dataset.matching_attrs));
  const size_t dim = static_cast<size_t>(sentence_encoder().embedding().dim());

  // Global context: GRU summary of the full serialized records.
  const std::span<const float> summary_a = summaries.Left(left);
  const std::span<const float> summary_b = summaries.Right(right);
  float global_sim = nn::Cosine(nn::Vec(summary_a.begin(), summary_a.end()),
                                nn::Vec(summary_b.begin(), summary_b.end()));

  std::vector<float> features;
  features.reserve(attrs_a.size() * 3 + 1);
  for (size_t a = 0; a < attrs_a.size(); ++a) {
    std::vector<nn::Vec> emb_a = sentence_encoder().TokenVectors(attrs_a[a]);
    std::vector<nn::Vec> emb_b = sentence_encoder().TokenVectors(attrs_b[a]);
    // Self-attention context.
    nn::Vec self_a = nn::SelfAttentionPool(emb_a, dim);
    nn::Vec self_b = nn::SelfAttentionPool(emb_b, dim);
    float self_sim = nn::Cosine(self_a, self_b);
    // Pair-attention context: read each side with the other's summary.
    nn::Vec pair_a = nn::Attend(self_b, emb_a);
    nn::Vec pair_b = nn::Attend(self_a, emb_b);
    float pair_sim = nn::Cosine(pair_a, pair_b);
    // Gating mechanism: per-attribute mixture of the three contexts.
    float gate = SigmoidF(gate_[0] * self_sim + gate_[1] * pair_sim +
                          gate_[2] * global_sim);
    float mixed = gate * self_sim + (1.0f - gate) * pair_sim;
    features.push_back(mixed);
    features.push_back(pair_sim);
    // Frequency-aware token alignment context.
    features.push_back(static_cast<float>(
        sentence_encoder().AlignmentSimilarity(attrs_a[a], attrs_b[a])));
  }
  features.push_back(global_sim);
  return features;
}

}  // namespace fairem
