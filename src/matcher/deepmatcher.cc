#include "src/matcher/deepmatcher.h"

#include <algorithm>

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

size_t DeepMatcherMatcher::SummaryWidth(const EMDataset& dataset) const {
  return kHiddenDim * dataset.matching_attrs.size();
}

Status DeepMatcherMatcher::SummarizeRecord(
    const Table& table, size_t row, const std::vector<std::string>& attrs,
    float* out) const {
  FAIREM_ASSIGN_OR_RETURN(auto tokens, PerAttributeTokens(table, row, attrs));
  for (const auto& attr_tokens : tokens) {
    nn::Vec rnn = gru_->RunMean(sentence_encoder().TokenVectors(attr_tokens));
    out = std::copy(rnn.begin(), rnn.end(), out);
  }
  return Status::OK();
}

Result<std::vector<float>> DeepMatcherMatcher::EncodePair(
    const EMDataset& dataset, const RecordSummaries& summaries, size_t left,
    size_t right) const {
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_a,
      PerAttributeTokens(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_b,
      PerAttributeTokens(dataset.table_b, right, dataset.matching_attrs));
  const std::span<const float> summary_a = summaries.Left(left);
  const std::span<const float> summary_b = summaries.Right(right);
  std::vector<float> features;
  features.reserve(attrs_a.size() * 3);
  const size_t dim = static_cast<size_t>(sentence_encoder().embedding().dim());
  for (size_t a = 0; a < attrs_a.size(); ++a) {
    std::vector<nn::Vec> emb_a = sentence_encoder().TokenVectors(attrs_a[a]);
    std::vector<nn::Vec> emb_b = sentence_encoder().TokenVectors(attrs_b[a]);
    // (1) Recurrent summaries.
    const size_t at = a * kHiddenDim;
    nn::Vec rnn_a(summary_a.begin() + at, summary_a.begin() + at + kHiddenDim);
    nn::Vec rnn_b(summary_b.begin() + at, summary_b.begin() + at + kHiddenDim);
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
