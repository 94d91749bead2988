#include "src/nn/gru.h"

#include <cmath>

#include "src/util/logging.h"

namespace fairem {
namespace nn {
namespace {

float SigmoidF(float z) {
  return 1.0f / (1.0f + std::exp(-z));
}

}  // namespace

GruCell::GruCell(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  FAIREM_CHECK(input_dim > 0 && hidden_dim > 0, "GruCell dims must be > 0");
  const double w_scale = 1.0 / std::sqrt(static_cast<double>(input_dim));
  // Spectral-radius-ish scaling keeps the reservoir dynamics stable.
  const double u_scale = 0.9 / std::sqrt(static_cast<double>(hidden_dim));
  for (int g = 0; g < 3; ++g) {
    w_[g].resize(static_cast<size_t>(hidden_dim) * input_dim);
    u_[g].resize(static_cast<size_t>(hidden_dim) * hidden_dim);
    b_[g].assign(static_cast<size_t>(hidden_dim), 0.0f);
    for (auto& v : w_[g]) v = static_cast<float>(rng->NextGaussian() * w_scale);
    for (auto& v : u_[g]) v = static_cast<float>(rng->NextGaussian() * u_scale);
  }
}

float GruCell::GateUnit(int g, int unit, const Vec& x, const Vec& h) const {
  float z = b_[g][static_cast<size_t>(unit)];
  const float* w = &w_[g][static_cast<size_t>(unit) * input_dim_];
  for (int i = 0; i < input_dim_; ++i) z += w[i] * x[static_cast<size_t>(i)];
  const float* u = &u_[g][static_cast<size_t>(unit) * hidden_dim_];
  for (int i = 0; i < hidden_dim_; ++i) z += u[i] * h[static_cast<size_t>(i)];
  return z;
}

Vec GruCell::Step(const Vec& x, const Vec& h) const {
  FAIREM_CHECK(static_cast<int>(x.size()) == input_dim_, "GRU input dim");
  FAIREM_CHECK(static_cast<int>(h.size()) == hidden_dim_, "GRU hidden dim");
  Vec out(static_cast<size_t>(hidden_dim_));
  // Compute reset-gated hidden first.
  Vec reset_h(static_cast<size_t>(hidden_dim_));
  for (int u = 0; u < hidden_dim_; ++u) {
    float r = SigmoidF(GateUnit(1, u, x, h));
    reset_h[static_cast<size_t>(u)] = r * h[static_cast<size_t>(u)];
  }
  for (int u = 0; u < hidden_dim_; ++u) {
    float z = SigmoidF(GateUnit(0, u, x, h));
    float cand = std::tanh(GateUnit(2, u, x, reset_h));
    out[static_cast<size_t>(u)] =
        (1.0f - z) * h[static_cast<size_t>(u)] + z * cand;
  }
  return out;
}

Vec GruCell::RunMean(const std::vector<Vec>& sequence) const {
  Vec h(static_cast<size_t>(hidden_dim_), 0.0f);
  Vec acc(static_cast<size_t>(hidden_dim_), 0.0f);
  if (sequence.empty()) return acc;
  for (const Vec& x : sequence) {
    h = Step(x, h);
    for (int u = 0; u < hidden_dim_; ++u) {
      acc[static_cast<size_t>(u)] += h[static_cast<size_t>(u)];
    }
  }
  float inv = 1.0f / static_cast<float>(sequence.size());
  for (float& v : acc) v *= inv;
  return acc;
}

}  // namespace nn
}  // namespace fairem
