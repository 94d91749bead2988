#ifndef FAIREM_EMBED_SENTENCE_ENCODER_H_
#define FAIREM_EMBED_SENTENCE_ENCODER_H_

#include <forward_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/embed/subword_embedding.h"

namespace fairem {

/// SIF-style sentence embeddings (Arora et al.): a frequency-weighted
/// average of subword token vectors, a / (a + p(token)). High-frequency
/// tokens ("the", venue boilerplate) are down-weighted. Plays the role of
/// the sequence-model sentence representation the neural matchers consume.
///
/// FitFrequencies also builds the embedding table (DESIGN.md §19): each
/// distinct corpus token's count, `Embed` vector and squared norm, so
/// every later call reads a token's vector instead of re-hashing its
/// q-grams. The table is read-only after the fit, so concurrent callers
/// need no lock, and every result is bit-identical to embedding each token
/// afresh.
class SentenceEncoder {
 public:
  explicit SentenceEncoder(const SubwordEmbedding* embedding, double a = 1e-3)
      : embedding_(embedding), a_(a) {}

  /// Learns token frequencies from a corpus of token lists and embeds each
  /// distinct token once. Optional; with no fit, all tokens weigh equally
  /// and every lookup misses the table.
  void FitFrequencies(const std::vector<std::vector<std::string>>& corpus);

  /// L2-normalized weighted mean of token embeddings; zero vector for an
  /// empty token list.
  std::vector<float> Encode(const std::vector<std::string>& tokens) const;

  /// The embedding of each token, in order: a copy of its table vector, or
  /// `Embed(token)` for a token outside the fitted corpus.
  std::vector<std::vector<float>> TokenVectors(
      const std::vector<std::string>& tokens) const;

  const SubwordEmbedding& embedding() const { return *embedding_; }

  /// SIF weight a/(a+p) of one token — 1.0 before FitFrequencies; low for
  /// frequent (boilerplate) tokens.
  double TokenWeight(const std::string& token) const;

  /// IDF-weighted symmetric soft alignment: each token's best embedding
  /// cosine in the other list, averaged under SIF weights. The token-level
  /// cross-attention signal of transformer matchers: boilerplate tokens
  /// barely count, so one mismatched content token is visible even when
  /// the rest of the records agree. 1 when both lists are empty, 0 when
  /// exactly one is.
  double AlignmentSimilarity(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) const;

 private:
  /// One token: its corpus count (0 outside the corpus), `Embed(token)`,
  /// and that vector's SquaredNorm.
  struct Entry {
    double count = 0.0;
    std::vector<float> vec;
    double norm_sq = 0.0;
  };

  /// The entries of `tokens`, in order. A token outside the table is
  /// embedded into a new entry in `*misses`. Adds the call's hits and
  /// misses to the fairem.embed.table_* counters once.
  std::vector<const Entry*> Lookup(const std::vector<std::string>& tokens,
                                   std::forward_list<Entry>* misses) const;

  /// SIF weight of a token seen `count` times.
  double Weight(double count) const;

  const SubwordEmbedding* embedding_;  // not owned
  double a_;
  std::unordered_map<std::string, Entry> table_;
  double total_count_ = 0.0;
};

}  // namespace fairem

#endif  // FAIREM_EMBED_SENTENCE_ENCODER_H_
