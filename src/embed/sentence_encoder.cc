#include "src/embed/sentence_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/obs/metrics.h"

namespace fairem {
namespace {

struct EmbedCounters {
  Counter* tokens;  // entries built by FitFrequencies
  Counter* hits;
  Counter* misses;
  Counter* align_cosines;  // cosines AlignmentSimilarity computed
};

const EmbedCounters& Counters() {
  static const EmbedCounters counters = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return EmbedCounters{reg.GetCounter("fairem.embed.table_tokens"),
                         reg.GetCounter("fairem.embed.table_hits"),
                         reg.GetCounter("fairem.embed.table_misses"),
                         reg.GetCounter("fairem.embed.align_cosines")};
  }();
  return counters;
}

// Registered at load time, so every snapshot carries the keys, at zero
// before any neural matcher fits.
[[maybe_unused]] const EmbedCounters& kEagerCounters = Counters();

/// The distinct pointers of `entries` in first-seen order, into `*distinct`,
/// and each element's position there. The lists are short (a record's
/// tokens), so a linear scan beats hashing.
template <typename T>
std::vector<uint32_t> DistinctSlots(const std::vector<const T*>& entries,
                                    std::vector<const T*>* distinct) {
  std::vector<uint32_t> slots;
  slots.reserve(entries.size());
  for (const T* entry : entries) {
    auto it = std::find(distinct->begin(), distinct->end(), entry);
    slots.push_back(static_cast<uint32_t>(it - distinct->begin()));
    if (it == distinct->end()) distinct->push_back(entry);
  }
  return slots;
}

}  // namespace

void SentenceEncoder::FitFrequencies(
    const std::vector<std::vector<std::string>>& corpus) {
  table_.clear();
  total_count_ = 0.0;
  for (const auto& doc : corpus) {
    for (const auto& tok : doc) {
      table_[tok].count += 1.0;
      total_count_ += 1.0;
    }
  }
  for (auto& [tok, entry] : table_) {
    entry.vec = embedding_->Embed(tok);
    entry.norm_sq = SubwordEmbedding::SquaredNorm(entry.vec);
  }
  Counters().tokens->Increment(table_.size());
}

double SentenceEncoder::Weight(double count) const {
  if (total_count_ <= 0.0) return 1.0;
  return a_ / (a_ + count / total_count_);
}

double SentenceEncoder::TokenWeight(const std::string& token) const {
  auto it = table_.find(token);
  return Weight(it == table_.end() ? 0.0 : it->second.count);
}

std::vector<const SentenceEncoder::Entry*> SentenceEncoder::Lookup(
    const std::vector<std::string>& tokens, Misses* misses) const {
  std::vector<const Entry*> out;
  out.reserve(tokens.size());
  uint64_t missed = 0;
  for (const auto& tok : tokens) {
    auto it = table_.find(tok);
    if (it != table_.end()) {
      out.push_back(&it->second);
      continue;
    }
    auto [miss, embedded] = misses->try_emplace(tok);
    Entry& entry = miss->second;
    if (embedded) {
      entry.vec = embedding_->Embed(tok);
      entry.norm_sq = SubwordEmbedding::SquaredNorm(entry.vec);
    }
    out.push_back(&entry);
    ++missed;
  }
  if (out.size() > missed) Counters().hits->Increment(out.size() - missed);
  if (missed > 0) Counters().misses->Increment(missed);
  return out;
}

std::vector<float> SentenceEncoder::Encode(
    const std::vector<std::string>& tokens) const {
  std::vector<float> acc(static_cast<size_t>(embedding_->dim()), 0.0f);
  Misses misses;
  for (const Entry* entry : Lookup(tokens, &misses)) {
    float w = static_cast<float>(Weight(entry->count));
    for (size_t d = 0; d < acc.size(); ++d) acc[d] += w * entry->vec[d];
  }
  double norm_sq = SubwordEmbedding::SquaredNorm(acc);
  if (norm_sq > 0.0) {
    float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (float& v : acc) v *= inv;
  }
  return acc;
}

std::vector<std::vector<float>> SentenceEncoder::TokenVectors(
    const std::vector<std::string>& tokens) const {
  Misses misses;
  std::vector<std::vector<float>> out;
  out.reserve(tokens.size());
  for (const Entry* entry : Lookup(tokens, &misses)) out.push_back(entry->vec);
  return out;
}

double SentenceEncoder::AlignmentSimilarity(
    const std::vector<std::string>& a, const std::vector<std::string>& b) const {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  Misses misses;
  const std::vector<const Entry*> entries_a = Lookup(a, &misses);
  const std::vector<const Entry*> entries_b = Lookup(b, &misses);
  std::vector<const Entry*> distinct_a;
  std::vector<const Entry*> distinct_b;
  const std::vector<uint32_t> slots_a = DistinctSlots(entries_a, &distinct_a);
  const std::vector<uint32_t> slots_b = DistinctSlots(entries_b, &distinct_b);
  // Each distinct token's best cosine on the other side. A duplicate adds
  // no new value to a max, and Cosine is symmetric to the bit, so one
  // cosine per distinct pair serves both directions. `best` starts at +0.0,
  // so a +0.0/-0.0 tie cannot depend on the order of the scan.
  std::vector<double> best_a(distinct_a.size(), 0.0);
  std::vector<double> best_b(distinct_b.size(), 0.0);
  for (size_t i = 0; i < distinct_a.size(); ++i) {
    const Entry* f = distinct_a[i];
    for (size_t j = 0; j < distinct_b.size(); ++j) {
      const Entry* t = distinct_b[j];
      const double cosine =
          SubwordEmbedding::Cosine(f->vec, f->norm_sq, t->vec, t->norm_sq);
      best_a[i] = std::max(best_a[i], cosine);
      best_b[j] = std::max(best_b[j], cosine);
    }
  }
  Counters().align_cosines->Increment(distinct_a.size() * distinct_b.size());
  // The SIF-weighted means run over the tokens in their original order.
  auto one_side = [&](const std::vector<const Entry*>& entries,
                      const std::vector<uint32_t>& slots,
                      const std::vector<double>& best) {
    double weighted = 0.0;
    double total_weight = 0.0;
    for (size_t k = 0; k < entries.size(); ++k) {
      double w = Weight(entries[k]->count);
      weighted += w * best[slots[k]];
      total_weight += w;
    }
    return total_weight > 0.0 ? weighted / total_weight : 0.0;
  };
  return 0.5 * (one_side(entries_a, slots_a, best_a) +
                one_side(entries_b, slots_b, best_b));
}

}  // namespace fairem
