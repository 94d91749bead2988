#include "src/embed/subword_embedding.h"

#include <cmath>

#include "src/text/tokenize.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

uint64_t Fnv1a(std::string_view s, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

SubwordEmbedding::SubwordEmbedding(SubwordEmbeddingOptions options)
    : options_(options) {}

void SubwordEmbedding::AddHashedDirection(uint64_t hash,
                                          std::vector<float>* acc) const {
  // Derive dim pseudo-random components in [-1, 1] from the hash; the
  // mapping is fixed by the seed, so the "pre-trained" vectors never change.
  uint64_t state = hash;
  for (int d = 0; d < options_.dim; ++d) {
    state = Mix(state + 0x9e3779b97f4a7c15ULL);
    // Top 53 bits -> [0, 1) -> [-1, 1).
    double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    (*acc)[static_cast<size_t>(d)] += static_cast<float>(2.0 * u - 1.0);
  }
}

std::vector<float> SubwordEmbedding::Embed(std::string_view token) const {
  std::vector<float> vec(static_cast<size_t>(options_.dim), 0.0f);
  std::string lowered = ToLowerAscii(token);
  if (lowered.empty()) return vec;
  int added = 0;
  for (int q = options_.min_q; q <= options_.max_q; ++q) {
    for (const auto& gram : QGrams(lowered, q, /*pad=*/true)) {
      AddHashedDirection(Fnv1a(gram, options_.seed), &vec);
      ++added;
    }
  }
  // The whole-token direction, so identical tokens always align perfectly.
  AddHashedDirection(Fnv1a(lowered, options_.seed ^ 0x5bd1e995ULL), &vec);
  ++added;
  double norm_sq = SquaredNorm(vec);
  if (norm_sq > 0.0) {
    float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (float& v : vec) v *= inv;
  }
  return vec;
}

double SubwordEmbedding::SquaredNorm(const std::vector<float>& v) {
  double norm_sq = 0.0;
  for (float x : v) norm_sq += static_cast<double>(x) * x;
  return norm_sq;
}

double SubwordEmbedding::Cosine(const std::vector<float>& a,
                                const std::vector<float>& b) {
  return Cosine(a, SquaredNorm(a), b, SquaredNorm(b));
}

double SubwordEmbedding::Cosine(const std::vector<float>& a, double a_norm_sq,
                                const std::vector<float>& b,
                                double b_norm_sq) {
  if (a.size() != b.size()) return 0.0;
  if (a_norm_sq == 0.0 || b_norm_sq == 0.0) return 0.0;
  double dot = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
  }
  return dot / std::sqrt(a_norm_sq * b_norm_sq);
}

}  // namespace fairem
