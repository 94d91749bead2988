#include "src/matcher/deepmatcher.h"

#include "src/matcher/serialize.h"
#include "src/nn/attention.h"
#include "src/nn/vecops.h"

namespace fairem {

DeepMatcherMatcher::DeepMatcherMatcher() : NeuralMatcherBase() {}

Status DeepMatcherMatcher::InitEncoder(const EMDataset& /*dataset*/,
                                       Rng* rng) {
  gru_ = std::make_unique<nn::GruCell>(sentence_encoder().embedding().dim(),
                                       kHiddenDim, rng);
  return Status::OK();
}

Result<std::vector<float>> DeepMatcherMatcher::EncodePair(
    const EMDataset& dataset, size_t left, size_t right) const {
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_a,
      PerAttributeTokens(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_b,
      PerAttributeTokens(dataset.table_b, right, dataset.matching_attrs));
  std::vector<float> features;
  features.reserve(attrs_a.size() * 3);
  const size_t dim = static_cast<size_t>(sentence_encoder().embedding().dim());
  for (size_t a = 0; a < attrs_a.size(); ++a) {
    std::vector<nn::Vec> emb_a = sentence_encoder().TokenVectors(attrs_a[a]);
    std::vector<nn::Vec> emb_b = sentence_encoder().TokenVectors(attrs_b[a]);
    // (1) Recurrent summaries.
    nn::Vec rnn_a = gru_->RunMean(emb_a);
    nn::Vec rnn_b = gru_->RunMean(emb_b);
    features.push_back(nn::Cosine(rnn_a, rnn_b));
    // (2) Decomposable attention alignment.
    features.push_back(nn::AlignmentSimilarity(emb_a, emb_b));
    // (3) Bag-of-embeddings comparison.
    features.push_back(
        nn::Cosine(nn::Mean(emb_a, dim), nn::Mean(emb_b, dim)));
    // (4) Frequency-aware token alignment (the trained attention of the
    // real model discounts boilerplate tokens).
    features.push_back(static_cast<float>(
        sentence_encoder().AlignmentSimilarity(attrs_a[a], attrs_b[a])));
  }
  return features;
}

}  // namespace fairem
