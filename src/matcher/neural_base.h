#ifndef FAIREM_MATCHER_NEURAL_BASE_H_
#define FAIREM_MATCHER_NEURAL_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/embed/sentence_encoder.h"
#include "src/embed/subword_embedding.h"
#include "src/matcher/matcher.h"
#include "src/nn/mlp.h"

namespace fairem {

/// Common scaffolding of the five neural matchers: a shared "pre-trained"
/// subword embedding (fixed seed — the same public embedding for everyone,
/// as in the paper's use of fastText), an architecture-specific frozen
/// encoder producing a pair-comparison vector, and a trainable MLP head
/// (Adam + BCE). Subclasses implement InitEncoder and EncodePair.
class NeuralMatcherBase : public Matcher {
 public:
  MatcherFamily family() const override { return MatcherFamily::kNeural; }

  Status Fit(const EMDataset& dataset, Rng* rng) override;
  Result<double> ScorePair(const EMDataset& dataset, size_t left,
                           size_t right) const override;

  /// Batch path: EncodePair + head forward per pair, chunked over the
  /// intra-cell pool. Encoders and the head are frozen after Fit, so pairs
  /// are independent and the output is byte-identical to the sequential
  /// loop in pair order. One-to-set matchers (GNEM) override this again.
  Result<std::vector<double>> PredictScores(
      const EMDataset& dataset,
      const std::vector<LabeledPair>& pairs) const override;

 protected:
  explicit NeuralMatcherBase(nn::MlpOptions head_options = {});

  /// Builds architecture-specific frozen components (GRUs, attention
  /// parameters) for this dataset. Called once at the start of Fit.
  virtual Status InitEncoder(const EMDataset& dataset, Rng* rng) = 0;

  /// The architecture: encodes the pair into the head's input vector.
  virtual Result<std::vector<float>> EncodePair(const EMDataset& dataset,
                                                size_t left,
                                                size_t right) const = 0;

  /// Training-time encoding; default delegates to EncodePair. Matchers with
  /// data augmentation (DITTO) override to perturb the encoding.
  virtual Result<std::vector<float>> EncodePairForTraining(
      const EMDataset& dataset, size_t left, size_t right, Rng* rng) const;

  /// SIF sentence encoder over the shared pre-trained embedding (fixed
  /// seed 42); its frequencies and embedding table are fit on both tables
  /// during Fit.
  const SentenceEncoder& sentence_encoder() const { return *sentence_encoder_; }

  const nn::Mlp& head() const { return head_; }

 private:
  SubwordEmbedding embedding_;
  std::unique_ptr<SentenceEncoder> sentence_encoder_;
  nn::Mlp head_;
  bool fitted_ = false;
};

}  // namespace fairem

#endif  // FAIREM_MATCHER_NEURAL_BASE_H_
