#ifndef FAIREM_ML_METRICS_H_
#define FAIREM_ML_METRICS_H_

#include <cstdint>

#include "src/util/result.h"

namespace fairem {

/// Counts of a binary confusion matrix. The same structure is used for
/// whole-test-set correctness (Table 9) and for per-group fairness auditing
/// (Appendix B), where counts are accumulated per group.
struct ConfusionCounts {
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t tn = 0;
  int64_t fn = 0;

  int64_t total() const { return tp + fp + tn + fn; }
  void Add(bool predicted_match, bool true_match) {
    if (predicted_match && true_match) ++tp;
    else if (predicted_match && !true_match) ++fp;
    else if (!predicted_match && true_match) ++fn;
    else ++tn;
  }
  void Merge(const ConfusionCounts& other) {
    tp += other.tp;
    fp += other.fp;
    tn += other.tn;
    fn += other.fn;
  }
};

/// Each rate returns UndefinedStatistic when its denominator is zero; the
/// audit layer skips groups where a measure is undefined (§3.5's
/// inapplicable-measure cases) instead of producing NaNs.
Result<double> Accuracy(const ConfusionCounts& c);
Result<double> F1Score(const ConfusionCounts& c);
Result<double> TruePositiveRate(const ConfusionCounts& c);
Result<double> FalsePositiveRate(const ConfusionCounts& c);
Result<double> TrueNegativeRate(const ConfusionCounts& c);
Result<double> FalseNegativeRate(const ConfusionCounts& c);
Result<double> PositivePredictiveValue(const ConfusionCounts& c);
Result<double> NegativePredictiveValue(const ConfusionCounts& c);
Result<double> FalseDiscoveryRate(const ConfusionCounts& c);
Result<double> FalseOmissionRate(const ConfusionCounts& c);
/// Pr(h = 'M'): the positive-prediction rate used by statistical parity.
Result<double> PositivePredictionRate(const ConfusionCounts& c);

}  // namespace fairem

#endif  // FAIREM_ML_METRICS_H_
