#ifndef FAIREM_MATCHER_NEURAL_BASE_H_
#define FAIREM_MATCHER_NEURAL_BASE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/embed/sentence_encoder.h"
#include "src/embed/subword_embedding.h"
#include "src/matcher/matcher.h"
#include "src/nn/mlp.h"

namespace fairem {

/// Per-record encoder outputs of one batch of pairs (DESIGN.md §20). A
/// batch is one Fit's training pairs, one PredictScores call or one
/// ScorePair call, and its summaries are a local of that call. Each
/// distinct left record (table_a row) and right record (table_b row) of
/// the batch gets one slot of the matcher's SummaryWidth floats, filled
/// once; every pair that names the record reads that slot.
class RecordSummaries {
 public:
  /// The summary of table_a row `row`; the row must be in the batch.
  std::span<const float> Left(size_t row) const { return Slot(0, row); }
  /// The summary of table_b row `row`; the row must be in the batch.
  std::span<const float> Right(size_t row) const { return Slot(1, row); }

 private:
  friend class NeuralMatcherBase;

  std::span<const float> Slot(int table, size_t row) const;

  size_t width_ = 0;
  /// The batch's distinct rows of table_a and of table_b, ascending. A
  /// row's slot is its position; table_b's slots follow table_a's.
  std::vector<size_t> rows_[2];
  std::vector<float> values_;  // width_ floats per slot, slot-major
};

/// Common scaffolding of the five neural matchers: a shared "pre-trained"
/// subword embedding (fixed seed — the same public embedding for everyone,
/// as in the paper's use of fastText), an architecture-specific frozen
/// encoder producing a pair-comparison vector, and a trainable MLP head
/// (Adam + BCE). Subclasses implement InitEncoder and EncodePair; an
/// encoder that reads a per-record summary (a GRU mean) also states its
/// SummaryWidth and SummarizeRecord, so each batch computes it once per
/// distinct record.
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
  /// `summaries` holds the batch's per-record summaries, the pair's two
  /// records among them.
  virtual Result<std::vector<float>> EncodePair(
      const EMDataset& dataset, const RecordSummaries& summaries, size_t left,
      size_t right) const = 0;

  /// Training-time encoding; default delegates to EncodePair. Matchers with
  /// data augmentation (DITTO) override to perturb the encoding.
  virtual Result<std::vector<float>> EncodePairForTraining(
      const EMDataset& dataset, const RecordSummaries& summaries, size_t left,
      size_t right, Rng* rng) const;

  /// Floats of one record's summary on `dataset`. The default, 0, is for
  /// encoders that keep none.
  virtual size_t SummaryWidth(const EMDataset& dataset) const;

  /// Writes the SummaryWidth floats of row `row` of `table` to `out`.
  /// Called once per distinct record of a batch, possibly on pool threads.
  virtual Status SummarizeRecord(const Table& table, size_t row,
                                 const std::vector<std::string>& attrs,
                                 float* out) const;

  /// Adds `pairs` to fairem.neural.pairs_encoded; for a PredictScores
  /// override that encodes its own batch (GNEM).
  static void CountPairsEncoded(size_t pairs);

  /// SIF sentence encoder over the shared pre-trained embedding (fixed
  /// seed 42); its frequencies and embedding table are fit on both tables
  /// during Fit.
  const SentenceEncoder& sentence_encoder() const { return *sentence_encoder_; }

  const nn::Mlp& head() const { return head_; }

 private:
  /// The summaries of the distinct records of `pairs`, built on the
  /// intra-cell pool; empty when SummaryWidth is 0. Adds the records to
  /// fairem.neural.records_summarized.
  Result<RecordSummaries> Summarize(const EMDataset& dataset,
                                    const std::vector<LabeledPair>& pairs) const;

  SubwordEmbedding embedding_;
  std::unique_ptr<SentenceEncoder> sentence_encoder_;
  nn::Mlp head_;
  bool fitted_ = false;
};

}  // namespace fairem

#endif  // FAIREM_MATCHER_NEURAL_BASE_H_
