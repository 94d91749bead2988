#include "src/matcher/gnem_matcher.h"

#include <unordered_map>

#include "src/matcher/serialize.h"
#include "src/nn/attention.h"
#include "src/nn/vecops.h"

namespace fairem {
namespace {

uint64_t PairKey(size_t left, size_t right) {
  return (static_cast<uint64_t>(left) << 32) | static_cast<uint64_t>(right);
}

}  // namespace

GnemMatcher::GnemMatcher() : NeuralMatcherBase() {}

Result<std::vector<float>> GnemMatcher::NodeFeatures(const EMDataset& dataset,
                                                     size_t left,
                                                     size_t right) const {
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<std::string> tokens_a,
      SerializeRecord(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      std::vector<std::string> tokens_b,
      SerializeRecord(dataset.table_b, right, dataset.matching_attrs));
  nn::Vec sent_a = sentence_encoder().Encode(tokens_a);
  nn::Vec sent_b = sentence_encoder().Encode(tokens_b);
  std::vector<float> f;
  f.push_back(nn::Cosine(sent_a, sent_b));
  f.push_back(1.0f - nn::MeanAbsDiff(sent_a, sent_b));
  f.push_back(static_cast<float>(
      sentence_encoder().AlignmentSimilarity(tokens_a, tokens_b)));
  return f;
}

Result<std::vector<std::vector<float>>> GnemMatcher::ConvolvedFeatures(
    const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const {
  std::vector<std::vector<float>> node(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    FAIREM_ASSIGN_OR_RETURN(node[i],
                            NodeFeatures(dataset, pairs[i].left,
                                         pairs[i].right));
  }
  // Adjacency via shared records: bucket node ids by left and right record.
  std::unordered_map<size_t, std::vector<size_t>> by_left;
  std::unordered_map<size_t, std::vector<size_t>> by_right;
  for (size_t i = 0; i < pairs.size(); ++i) {
    by_left[pairs[i].left].push_back(i);
    by_right[pairs[i].right].push_back(i);
  }
  const size_t fdim = node.empty() ? 0 : node[0].size();
  std::vector<std::vector<float>> out(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    // Mean over neighbours (pairs sharing the left or the right record,
    // including self — standard GCN self-loop).
    std::vector<float> mean(fdim, 0.0f);
    size_t count = 0;
    for (const auto* bucket :
         {&by_left[pairs[i].left], &by_right[pairs[i].right]}) {
      for (size_t j : *bucket) {
        for (size_t d = 0; d < fdim; ++d) mean[d] += node[j][d];
        ++count;
      }
    }
    if (count > 0) {
      for (float& v : mean) v /= static_cast<float>(count);
    }
    out[i] = node[i];
    out[i].insert(out[i].end(), mean.begin(), mean.end());
  }
  return out;
}

Status GnemMatcher::InitEncoder(const EMDataset& dataset, Rng* /*rng*/) {
  // Pre-compute the one-to-set (graph-convolved) training features so the
  // head trains under the same semantics it will predict with.
  FAIREM_ASSIGN_OR_RETURN(train_features_,
                          ConvolvedFeatures(dataset, dataset.train));
  train_index_.clear();
  for (size_t i = 0; i < dataset.train.size(); ++i) {
    train_index_.emplace(
        PairKey(dataset.train[i].left, dataset.train[i].right), i);
  }
  train_cache_ready_ = true;
  return Status::OK();
}

Result<std::vector<float>> GnemMatcher::EncodePairForTraining(
    const EMDataset& dataset, const RecordSummaries& summaries, size_t left,
    size_t right, Rng* /*rng*/) const {
  if (train_cache_ready_) {
    auto it = train_index_.find(PairKey(left, right));
    if (it != train_index_.end()) return train_features_[it->second];
  }
  return EncodePair(dataset, summaries, left, right);
}

Result<std::vector<float>> GnemMatcher::EncodePair(
    const EMDataset& dataset, const RecordSummaries& /*summaries*/,
    size_t left, size_t right) const {
  // Isolated pair: self-loop-only neighbourhood (the node is its own set).
  FAIREM_ASSIGN_OR_RETURN(std::vector<float> f,
                          NodeFeatures(dataset, left, right));
  std::vector<float> out = f;
  out.insert(out.end(), f.begin(), f.end());
  return out;
}

Result<std::vector<double>> GnemMatcher::PredictScores(
    const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const {
  if (!head().fitted()) {
    return Status::FailedPrecondition("GNEM used before Fit");
  }
  FAIREM_ASSIGN_OR_RETURN(std::vector<std::vector<float>> features,
                          ConvolvedFeatures(dataset, pairs));
  std::vector<double> scores(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    scores[i] = head().Predict(features[i]);
  }
  CountPairsEncoded(pairs.size());
  return scores;
}

}  // namespace fairem
