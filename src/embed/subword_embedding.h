#ifndef FAIREM_EMBED_SUBWORD_EMBEDDING_H_
#define FAIREM_EMBED_SUBWORD_EMBEDDING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fairem {

/// Deterministic hashed character-n-gram word embeddings — the library's
/// stand-in for pre-trained fastText/GloVe vectors (see DESIGN.md).
///
/// Each character n-gram of a token hashes to a fixed pseudo-random unit
/// direction; the token vector is the normalized sum over its n-grams (plus
/// the whole token). Tokens sharing many n-grams therefore get high cosine
/// similarity — exactly the property of pre-trained subword embeddings that
/// the paper identifies as a source of neural-matcher false positives
/// ("Likes Me" vs "Loves Me", "efficient" vs "effective").
struct SubwordEmbeddingOptions {
  int dim = 32;
  int min_q = 3;
  int max_q = 4;
  /// Seed of the hash → direction mapping; models "which pre-trained
  /// embedding" is in use.
  uint64_t seed = 42;
};

class SubwordEmbedding {
 public:
  explicit SubwordEmbedding(SubwordEmbeddingOptions options = {});

  int dim() const { return options_.dim; }

  /// L2-normalized embedding of `token` (lower-cased). The zero vector is
  /// returned for an empty token.
  std::vector<float> Embed(std::string_view token) const;

  /// Cosine similarity of two embeddings (0 if either is all-zero).
  static double Cosine(const std::vector<float>& a,
                       const std::vector<float>& b);

  /// Cosine given each vector's SquaredNorm: the same bits as Cosine(a, b)
  /// without re-summing the norms.
  static double Cosine(const std::vector<float>& a, double a_norm_sq,
                       const std::vector<float>& b, double b_norm_sq);

  /// Sum of squares in double precision, in index order.
  static double SquaredNorm(const std::vector<float>& v);

  /// Convenience: cosine of the embeddings of two tokens.
  double TokenSimilarity(std::string_view a, std::string_view b) const;

 private:
  /// Adds the pseudo-random direction of `hash` into `acc`.
  void AddHashedDirection(uint64_t hash, std::vector<float>* acc) const;

  SubwordEmbeddingOptions options_;
};

}  // namespace fairem

#endif  // FAIREM_EMBED_SUBWORD_EMBEDDING_H_
