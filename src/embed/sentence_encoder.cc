#include "src/embed/sentence_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/obs/metrics.h"

namespace fairem {
namespace {

struct TableCounters {
  Counter* tokens;  // entries built by FitFrequencies
  Counter* hits;
  Counter* misses;
};

const TableCounters& Counters() {
  static const TableCounters counters = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return TableCounters{reg.GetCounter("fairem.embed.table_tokens"),
                         reg.GetCounter("fairem.embed.table_hits"),
                         reg.GetCounter("fairem.embed.table_misses")};
  }();
  return counters;
}

// Registered at load time, so every snapshot carries the keys, at zero
// before any neural matcher fits.
[[maybe_unused]] const TableCounters& kEagerCounters = Counters();

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
    const std::vector<std::string>& tokens,
    std::forward_list<Entry>* misses) const {
  std::vector<const Entry*> out;
  out.reserve(tokens.size());
  uint64_t missed = 0;
  for (const auto& tok : tokens) {
    auto it = table_.find(tok);
    if (it != table_.end()) {
      out.push_back(&it->second);
      continue;
    }
    Entry& entry = misses->emplace_front();
    entry.vec = embedding_->Embed(tok);
    entry.norm_sq = SubwordEmbedding::SquaredNorm(entry.vec);
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
  std::forward_list<Entry> misses;
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
  std::forward_list<Entry> misses;
  std::vector<std::vector<float>> out;
  out.reserve(tokens.size());
  for (const Entry* entry : Lookup(tokens, &misses)) out.push_back(entry->vec);
  return out;
}

double SentenceEncoder::AlignmentSimilarity(
    const std::vector<std::string>& a, const std::vector<std::string>& b) const {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::forward_list<Entry> misses;
  const std::vector<const Entry*> entries_a = Lookup(a, &misses);
  const std::vector<const Entry*> entries_b = Lookup(b, &misses);
  auto one_side = [&](const std::vector<const Entry*>& from,
                      const std::vector<const Entry*>& to) {
    double weighted = 0.0;
    double total_weight = 0.0;
    for (const Entry* f : from) {
      double best = 0.0;
      for (const Entry* t : to) {
        best = std::max(best, SubwordEmbedding::Cosine(f->vec, f->norm_sq,
                                                       t->vec, t->norm_sq));
      }
      double w = Weight(f->count);
      weighted += w * best;
      total_weight += w;
    }
    return total_weight > 0.0 ? weighted / total_weight : 0.0;
  };
  return 0.5 * (one_side(entries_a, entries_b) +
                one_side(entries_b, entries_a));
}

}  // namespace fairem
