#include "src/matcher/neural_base.h"

#include <algorithm>

#include "src/matcher/serialize.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

struct NeuralCounters {
  Counter* records_summarized;
  Counter* pairs_encoded;
};

const NeuralCounters& Counters() {
  static const NeuralCounters counters = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return NeuralCounters{reg.GetCounter("fairem.neural.records_summarized"),
                          reg.GetCounter("fairem.neural.pairs_encoded")};
  }();
  return counters;
}

// Registered at load time, so every snapshot carries the keys, at zero
// before any neural matcher fits.
[[maybe_unused]] const NeuralCounters& kEagerCounters = Counters();

}  // namespace

std::span<const float> RecordSummaries::Slot(int table, size_t row) const {
  const std::vector<size_t>& rows = rows_[table];
  auto it = std::lower_bound(rows.begin(), rows.end(), row);
  FAIREM_CHECK(it != rows.end() && *it == row, "record not in the batch");
  size_t slot = static_cast<size_t>(it - rows.begin());
  if (table == 1) slot += rows_[0].size();
  return {values_.data() + slot * width_, width_};
}

NeuralMatcherBase::NeuralMatcherBase(nn::MlpOptions head_options)
    : embedding_(SubwordEmbeddingOptions{}), head_(head_options) {}

Status NeuralMatcherBase::Fit(const EMDataset& dataset, Rng* rng) {
  {
    // Fit the SIF frequency weights on the corpus of both tables (the
    // "language model" view of the data). Only FitFrequencies reads the
    // corpus, so it is freed before the encoder is built.
    std::vector<std::vector<std::string>> corpus;
    corpus.reserve(dataset.table_a.num_rows() + dataset.table_b.num_rows());
    for (size_t r = 0; r < dataset.table_a.num_rows(); ++r) {
      FAIREM_ASSIGN_OR_RETURN(
          std::vector<std::string> tokens,
          SerializeRecord(dataset.table_a, r, dataset.matching_attrs));
      corpus.push_back(std::move(tokens));
    }
    for (size_t r = 0; r < dataset.table_b.num_rows(); ++r) {
      FAIREM_ASSIGN_OR_RETURN(
          std::vector<std::string> tokens,
          SerializeRecord(dataset.table_b, r, dataset.matching_attrs));
      corpus.push_back(std::move(tokens));
    }
    sentence_encoder_ = std::make_unique<SentenceEncoder>(&embedding_);
    sentence_encoder_->FitFrequencies(corpus);
  }

  FAIREM_RETURN_NOT_OK(InitEncoder(dataset, rng));

  FAIREM_ASSIGN_OR_RETURN(const RecordSummaries summaries,
                          Summarize(dataset, dataset.train));
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  x.reserve(dataset.train.size());
  y.reserve(dataset.train.size());
  for (const auto& pair : dataset.train) {
    FAIREM_ASSIGN_OR_RETURN(
        std::vector<float> features,
        EncodePairForTraining(dataset, summaries, pair.left, pair.right, rng));
    x.push_back(std::move(features));
    y.push_back(pair.is_match ? 1 : 0);
  }
  CountPairsEncoded(x.size());
  if (x.empty()) {
    return Status::InvalidArgument("neural matcher '" + name() +
                                   "': empty training split");
  }
  FAIREM_RETURN_NOT_OK(head_.Fit(x, y, rng));
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<float>> NeuralMatcherBase::EncodePairForTraining(
    const EMDataset& dataset, const RecordSummaries& summaries, size_t left,
    size_t right, Rng* /*rng*/) const {
  return EncodePair(dataset, summaries, left, right);
}

size_t NeuralMatcherBase::SummaryWidth(const EMDataset& /*dataset*/) const {
  return 0;
}

Status NeuralMatcherBase::SummarizeRecord(
    const Table& /*table*/, size_t /*row*/,
    const std::vector<std::string>& /*attrs*/, float* /*out*/) const {
  return Status::OK();
}

void NeuralMatcherBase::CountPairsEncoded(size_t pairs) {
  if (pairs > 0) Counters().pairs_encoded->Increment(pairs);
}

Result<RecordSummaries> NeuralMatcherBase::Summarize(
    const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const {
  RecordSummaries summaries;
  summaries.width_ = SummaryWidth(dataset);
  if (summaries.width_ == 0) return summaries;
  std::vector<size_t>& lefts = summaries.rows_[0];
  std::vector<size_t>& rights = summaries.rows_[1];
  lefts.reserve(pairs.size());
  rights.reserve(pairs.size());
  for (const LabeledPair& pair : pairs) {
    lefts.push_back(pair.left);
    rights.push_back(pair.right);
  }
  for (std::vector<size_t>* rows : {&lefts, &rights}) {
    std::sort(rows->begin(), rows->end());
    rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
  }
  const size_t slots = lefts.size() + rights.size();
  summaries.values_.resize(slots * summaries.width_);
  // Each slot writes only its own floats, so the pool needs no lock.
  FAIREM_RETURN_NOT_OK(ParallelForChunks(
      slots, /*grain=*/0, [&](size_t begin, size_t end) -> Status {
        for (size_t slot = begin; slot < end; ++slot) {
          const bool left = slot < lefts.size();
          FAIREM_RETURN_NOT_OK(SummarizeRecord(
              left ? dataset.table_a : dataset.table_b,
              left ? lefts[slot] : rights[slot - lefts.size()],
              dataset.matching_attrs,
              summaries.values_.data() + slot * summaries.width_));
        }
        return Status::OK();
      }));
  if (slots > 0) Counters().records_summarized->Increment(slots);
  return summaries;
}

Result<double> NeuralMatcherBase::ScorePair(const EMDataset& dataset,
                                            size_t left, size_t right) const {
  if (!fitted_) {
    return Status::FailedPrecondition("neural matcher '" + name() +
                                      "' used before Fit");
  }
  FAIREM_ASSIGN_OR_RETURN(const RecordSummaries summaries,
                          Summarize(dataset, {LabeledPair{left, right}}));
  FAIREM_ASSIGN_OR_RETURN(std::vector<float> features,
                          EncodePair(dataset, summaries, left, right));
  CountPairsEncoded(1);
  return head_.Predict(features);
}

Result<std::vector<double>> NeuralMatcherBase::PredictScores(
    const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const {
  if (!fitted_) {
    return Status::FailedPrecondition("neural matcher '" + name() +
                                      "' used before Fit");
  }
  FAIREM_ASSIGN_OR_RETURN(const RecordSummaries summaries,
                          Summarize(dataset, pairs));
  std::vector<double> scores(pairs.size(), 0.0);
  FAIREM_RETURN_NOT_OK(ParallelForChunks(
      pairs.size(), /*grain=*/0, [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          FAIREM_ASSIGN_OR_RETURN(
              std::vector<float> features,
              EncodePair(dataset, summaries, pairs[i].left, pairs[i].right));
          scores[i] = head_.Predict(features);
        }
        return Status::OK();
      }));
  CountPairsEncoded(pairs.size());
  return scores;
}

}  // namespace fairem
