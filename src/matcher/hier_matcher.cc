#include "src/matcher/hier_matcher.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/matcher/serialize.h"
#include "src/nn/attention.h"

namespace fairem {
namespace {

/// The token vectors of a record's attributes, back to back, and each
/// vector's Norm: attribute `a` holds tokens [begin[a], begin[a + 1]).
struct RecordTokens {
  std::vector<nn::Vec> vecs;
  std::vector<size_t> begin = {0};
  std::vector<float> norms;
};

RecordTokens EmbedRecord(const SentenceEncoder& encoder,
                         const std::vector<std::vector<std::string>>& attrs) {
  RecordTokens record;
  for (const auto& tokens : attrs) {
    std::vector<nn::Vec> vecs = encoder.TokenVectors(tokens);
    record.vecs.insert(record.vecs.end(), std::make_move_iterator(vecs.begin()),
                       std::make_move_iterator(vecs.end()));
    record.begin.push_back(record.vecs.size());
  }
  record.norms.reserve(record.vecs.size());
  for (const nn::Vec& v : record.vecs) record.norms.push_back(nn::Norm(v));
  return record;
}

/// One attribute's cross-attribute alignment: each of its tokens' best
/// cosine over the *whole other record* (`best`, indexed like
/// `record.vecs`), weighted by attention logits from `attention`.
float AlignedAttributeSimilarity(const RecordTokens& record, size_t attr,
                                 const std::vector<float>& best,
                                 bool other_empty, const nn::Vec& attention) {
  const size_t begin = record.begin[attr];
  const size_t end = record.begin[attr + 1];
  if (begin == end && other_empty) return 1.0f;
  if (begin == end || other_empty) return 0.0f;
  std::vector<float> weights;
  weights.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    weights.push_back(nn::Dot(record.vecs[i], attention));
  }
  nn::SoftmaxInPlace(&weights);
  float acc = 0.0f;
  for (size_t i = begin; i < end; ++i) acc += weights[i - begin] * best[i];
  return acc;
}

}  // namespace

HierMatcherMatcher::HierMatcherMatcher() : NeuralMatcherBase() {}

Status HierMatcherMatcher::InitEncoder(const EMDataset& dataset, Rng* rng) {
  attr_attention_.clear();
  for (size_t a = 0; a < dataset.matching_attrs.size(); ++a) {
    nn::Vec v(static_cast<size_t>(sentence_encoder().embedding().dim()));
    for (float& x : v) x = static_cast<float>(rng->NextGaussian() * 0.5);
    attr_attention_.push_back(std::move(v));
  }
  return Status::OK();
}

Result<std::vector<float>> HierMatcherMatcher::EncodePair(
    const EMDataset& dataset, const RecordSummaries& /*summaries*/,
    size_t left, size_t right) const {
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_a,
      PerAttributeTokens(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_b,
      PerAttributeTokens(dataset.table_b, right, dataset.matching_attrs));
  // Embed per attribute and pooled across the record (tokens of every
  // attribute — the cross-attribute alignment pool).
  const RecordTokens rec_a = EmbedRecord(sentence_encoder(), attrs_a);
  const RecordTokens rec_b = EmbedRecord(sentence_encoder(), attrs_b);
  // Every token's best cosine over the whole other record. Cosine is
  // symmetric to the bit, so one cosine per cross-record token pair serves
  // both directions, and the scans keep the order of a row-by-row and a
  // column-by-column pass.
  std::vector<float> best_a(rec_a.vecs.size(), -1.0f);
  std::vector<float> best_b(rec_b.vecs.size(), -1.0f);
  for (size_t i = 0; i < rec_a.vecs.size(); ++i) {
    for (size_t j = 0; j < rec_b.vecs.size(); ++j) {
      const float cosine = nn::Cosine(rec_a.vecs[i], rec_a.norms[i],
                                      rec_b.vecs[j], rec_b.norms[j]);
      best_a[i] = std::max(best_a[i], cosine);
      best_b[j] = std::max(best_b[j], cosine);
    }
  }
  std::vector<float> features;
  features.reserve(attrs_a.size() * 3 + 2);
  float min_sim = 1.0f;
  float sum_sim = 0.0f;
  for (size_t a = 0; a < attrs_a.size(); ++a) {
    float sim_ab = AlignedAttributeSimilarity(
        rec_a, a, best_a, rec_b.vecs.empty(), attr_attention_[a]);
    float sim_ba = AlignedAttributeSimilarity(
        rec_b, a, best_b, rec_a.vecs.empty(), attr_attention_[a]);
    features.push_back(sim_ab);
    features.push_back(sim_ba);
    // Frequency-aware within-attribute alignment (trained token attention
    // discounts boilerplate).
    features.push_back(static_cast<float>(
        sentence_encoder().AlignmentSimilarity(attrs_a[a], attrs_b[a])));
    float sym = 0.5f * (sim_ab + sim_ba);
    min_sim = std::min(min_sim, sym);
    sum_sim += sym;
  }
  // Record-level aggregation.
  features.push_back(min_sim);
  features.push_back(attrs_a.empty()
                         ? 0.0f
                         : sum_sim / static_cast<float>(attrs_a.size()));
  return features;
}

}  // namespace fairem
