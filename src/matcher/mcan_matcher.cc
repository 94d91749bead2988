#include "src/matcher/mcan_matcher.h"

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

Result<std::vector<float>> McanMatcher::EncodePair(const EMDataset& dataset,
                                                   size_t left,
                                                   size_t right) const {
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_a,
      PerAttributeTokens(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_b,
      PerAttributeTokens(dataset.table_b, right, dataset.matching_attrs));
  const size_t dim = static_cast<size_t>(sentence_encoder().embedding().dim());

  // Global context: GRU summary of the full serialized records.
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<std::string> full_a,
      SerializeRecord(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<std::string> full_b,
      SerializeRecord(dataset.table_b, right, dataset.matching_attrs));
  nn::Vec global_a = gru_->RunMean(sentence_encoder().TokenVectors(full_a));
  nn::Vec global_b = gru_->RunMean(sentence_encoder().TokenVectors(full_b));
  float global_sim = nn::Cosine(global_a, global_b);

  std::vector<float> features;
  features.reserve(attrs_a.size() * 2 + 1);
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
