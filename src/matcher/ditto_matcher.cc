#include "src/matcher/ditto_matcher.h"

#include <algorithm>

#include "src/matcher/serialize.h"
#include "src/nn/attention.h"
#include "src/nn/vecops.h"
#include "src/text/token_sim.h"

namespace fairem {

DittoMatcher::DittoMatcher() : NeuralMatcherBase() {}

Status DittoMatcher::InitEncoder(const EMDataset& /*dataset*/, Rng* /*rng*/) {
  // DITTO's encoder is entirely the frozen language model; nothing to do.
  return Status::OK();
}

Result<std::vector<float>> DittoMatcher::Encode(const EMDataset& dataset,
                                                size_t left, size_t right,
                                                Rng* augment_rng) const {
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<std::string> tokens_a,
      SerializeRecord(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<std::string> tokens_b,
      SerializeRecord(dataset.table_b, right, dataset.matching_attrs));
  // Sequence summarization: truncate long streams.
  if (tokens_a.size() > kMaxTokens) tokens_a.resize(kMaxTokens);
  if (tokens_b.size() > kMaxTokens) tokens_b.resize(kMaxTokens);
  // Data augmentation: random token dropout during training.
  if (augment_rng != nullptr) {
    auto drop = [&](std::vector<std::string>* tokens) {
      std::vector<std::string> kept;
      kept.reserve(tokens->size());
      for (auto& t : *tokens) {
        if (!augment_rng->NextBool(kDropout)) kept.push_back(std::move(t));
      }
      if (!kept.empty()) *tokens = std::move(kept);
    };
    drop(&tokens_a);
    drop(&tokens_b);
  }
  const size_t dim = static_cast<size_t>(sentence_encoder().embedding().dim());
  nn::Vec sent_a = sentence_encoder().Encode(tokens_a);
  nn::Vec sent_b = sentence_encoder().Encode(tokens_b);
  nn::Vec pooled_a =
      nn::SelfAttentionPool(sentence_encoder().TokenVectors(tokens_a), dim);
  nn::Vec pooled_b =
      nn::SelfAttentionPool(sentence_encoder().TokenVectors(tokens_b), dim);
  std::vector<float> features;
  features.push_back(nn::Cosine(sent_a, sent_b));
  features.push_back(nn::Cosine(pooled_a, pooled_b));
  features.push_back(1.0f - nn::MeanAbsDiff(sent_a, sent_b));
  features.push_back(
      static_cast<float>(JaccardSimilarity(tokens_a, tokens_b)));
  // Token-level cross attention over the serialized streams (still
  // structure-blind: alignment freely crosses attribute boundaries).
  features.push_back(static_cast<float>(
      sentence_encoder().AlignmentSimilarity(tokens_a, tokens_b)));
  return features;
}

Result<std::vector<float>> DittoMatcher::EncodePair(
    const EMDataset& dataset, const RecordSummaries& /*summaries*/,
    size_t left, size_t right) const {
  return Encode(dataset, left, right, nullptr);
}

Result<std::vector<float>> DittoMatcher::EncodePairForTraining(
    const EMDataset& dataset, const RecordSummaries& /*summaries*/,
    size_t left, size_t right, Rng* rng) const {
  return Encode(dataset, left, right, rng);
}

}  // namespace fairem
