#ifndef FAIREM_NN_GRU_H_
#define FAIREM_NN_GRU_H_

#include <vector>

#include "src/nn/vecops.h"
#include "src/util/rng.h"

namespace fairem {
namespace nn {

/// A GRU recurrent cell with fixed random weights (echo-state / reservoir
/// style). The recurrent encoders inside the neural matchers use frozen
/// GRUs over "pre-trained" subword embeddings, with all learning done in
/// the downstream MLP head — the standard random-feature approximation of
/// a trained RNN at laptop scale (see DESIGN.md substitutions).
class GruCell {
 public:
  /// Creates a cell mapping `input_dim`-d inputs to `hidden_dim`-d states.
  /// Weights are sampled once from `rng` and never change.
  GruCell(int input_dim, int hidden_dim, Rng* rng);

  int hidden_dim() const { return hidden_dim_; }
  int input_dim() const { return input_dim_; }

  /// One step: h' = GRU(x, h). `x` must have input_dim entries and `h`
  /// hidden_dim entries.
  Vec Step(const Vec& x, const Vec& h) const;

  /// Runs the cell over a sequence from a zero state and returns the mean
  /// of all hidden states; a zero vector for an empty sequence.
  Vec RunMean(const std::vector<Vec>& sequence) const;

 private:
  /// Gate pre-activation: W x + U h + b for gate `g` (0=update, 1=reset,
  /// 2=candidate).
  float GateUnit(int g, int unit, const Vec& x, const Vec& h) const;

  int input_dim_;
  int hidden_dim_;
  // Weights laid out per gate: w_[g] is hidden_dim x input_dim, u_[g] is
  // hidden_dim x hidden_dim, b_[g] is hidden_dim.
  std::vector<float> w_[3];
  std::vector<float> u_[3];
  std::vector<float> b_[3];
};

}  // namespace nn
}  // namespace fairem

#endif  // FAIREM_NN_GRU_H_
