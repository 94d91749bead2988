#include "src/nn/vecops.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace fairem {
namespace nn {

float Dot(const Vec& a, const Vec& b) {
  size_t n = std::min(a.size(), b.size());
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float Norm(const Vec& a) { return std::sqrt(Dot(a, a)); }

float Cosine(const Vec& a, const Vec& b) {
  float na = Norm(a);
  float nb = Norm(b);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return Dot(a, b) / (na * nb);
}

void Axpy(float scale, const Vec& b, Vec* a) {
  FAIREM_CHECK(a->size() == b.size(), "Axpy size mismatch");
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += scale * b[i];
}

float MeanAbsDiff(const Vec& a, const Vec& b) {
  FAIREM_CHECK(a.size() == b.size(), "MeanAbsDiff size mismatch");
  if (a.empty()) return 0.0f;
  float acc = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  return acc / static_cast<float>(a.size());
}

void SoftmaxInPlace(std::vector<float>* logits) {
  if (logits->empty()) return;
  float max_logit = *std::max_element(logits->begin(), logits->end());
  float sum = 0.0f;
  for (float& v : *logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (float& v : *logits) v /= sum;
}

Vec Mean(const std::vector<Vec>& vectors, size_t dim) {
  Vec out(dim, 0.0f);
  if (vectors.empty()) return out;
  for (const Vec& v : vectors) {
    FAIREM_CHECK(v.size() == dim, "Mean dim mismatch");
    for (size_t i = 0; i < dim; ++i) out[i] += v[i];
  }
  float inv = 1.0f / static_cast<float>(vectors.size());
  for (float& x : out) x *= inv;
  return out;
}

}  // namespace nn
}  // namespace fairem
