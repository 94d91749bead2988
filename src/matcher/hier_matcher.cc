#include "src/matcher/hier_matcher.h"

#include <algorithm>
#include <cmath>

#include "src/matcher/serialize.h"
#include "src/nn/attention.h"

namespace fairem {
namespace {

/// For each token vector in `a`, its best cosine over the token vectors of
/// the *whole other record* (cross-attribute token alignment), weighted by
/// attention logits from `attention` and averaged.
float AlignedAttributeSimilarity(const std::vector<nn::Vec>& a,
                                 const std::vector<nn::Vec>& all_b,
                                 const nn::Vec& attention) {
  if (a.empty() && all_b.empty()) return 1.0f;
  if (a.empty() || all_b.empty()) return 0.0f;
  std::vector<float> weights(a.size());
  std::vector<float> sims(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    float best = -1.0f;
    for (const auto& vb : all_b) best = std::max(best, nn::Cosine(a[i], vb));
    sims[i] = best;
    weights[i] = nn::Dot(a[i], attention);
  }
  nn::SoftmaxInPlace(&weights);
  float acc = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) acc += weights[i] * sims[i];
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
    const EMDataset& dataset, size_t left, size_t right) const {
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_a,
      PerAttributeTokens(dataset.table_a, left, dataset.matching_attrs));
  FAIREM_ASSIGN_OR_RETURN(
      auto attrs_b,
      PerAttributeTokens(dataset.table_b, right, dataset.matching_attrs));
  // Embed per attribute and pooled across the record (tokens of every
  // attribute — the cross-attribute alignment pool).
  std::vector<std::vector<nn::Vec>> emb_a(attrs_a.size());
  std::vector<std::vector<nn::Vec>> emb_b(attrs_b.size());
  std::vector<nn::Vec> all_a;
  std::vector<nn::Vec> all_b;
  for (size_t a = 0; a < attrs_a.size(); ++a) {
    emb_a[a] = sentence_encoder().TokenVectors(attrs_a[a]);
    all_a.insert(all_a.end(), emb_a[a].begin(), emb_a[a].end());
    emb_b[a] = sentence_encoder().TokenVectors(attrs_b[a]);
    all_b.insert(all_b.end(), emb_b[a].begin(), emb_b[a].end());
  }
  std::vector<float> features;
  features.reserve(attrs_a.size() * 2 + 2);
  float min_sim = 1.0f;
  float sum_sim = 0.0f;
  for (size_t a = 0; a < attrs_a.size(); ++a) {
    float sim_ab =
        AlignedAttributeSimilarity(emb_a[a], all_b, attr_attention_[a]);
    float sim_ba =
        AlignedAttributeSimilarity(emb_b[a], all_a, attr_attention_[a]);
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
