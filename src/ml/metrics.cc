#include "src/ml/metrics.h"

namespace fairem {
namespace {

Result<double> Ratio(int64_t num, int64_t denom, const char* what) {
  if (denom == 0) {
    return Status::UndefinedStatistic(std::string(what) +
                                      " has empty denominator");
  }
  return static_cast<double>(num) / static_cast<double>(denom);
}

}  // namespace

Result<double> Accuracy(const ConfusionCounts& c) {
  return Ratio(c.tp + c.tn, c.total(), "accuracy");
}

Result<double> F1Score(const ConfusionCounts& c) {
  // F1 = 2TP / (2TP + FP + FN); defined whenever any of TP/FP/FN exists.
  return Ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "f1");
}

Result<double> TruePositiveRate(const ConfusionCounts& c) {
  return Ratio(c.tp, c.tp + c.fn, "tpr");
}

Result<double> FalsePositiveRate(const ConfusionCounts& c) {
  return Ratio(c.fp, c.fp + c.tn, "fpr");
}

Result<double> TrueNegativeRate(const ConfusionCounts& c) {
  return Ratio(c.tn, c.tn + c.fp, "tnr");
}

Result<double> FalseNegativeRate(const ConfusionCounts& c) {
  return Ratio(c.fn, c.fn + c.tp, "fnr");
}

Result<double> PositivePredictiveValue(const ConfusionCounts& c) {
  return Ratio(c.tp, c.tp + c.fp, "ppv");
}

Result<double> NegativePredictiveValue(const ConfusionCounts& c) {
  return Ratio(c.tn, c.tn + c.fn, "npv");
}

Result<double> FalseDiscoveryRate(const ConfusionCounts& c) {
  return Ratio(c.fp, c.tp + c.fp, "fdr");
}

Result<double> FalseOmissionRate(const ConfusionCounts& c) {
  return Ratio(c.fn, c.tn + c.fn, "for");
}

Result<double> PositivePredictionRate(const ConfusionCounts& c) {
  return Ratio(c.tp + c.fp, c.total(), "positive_prediction_rate");
}

}  // namespace fairem
