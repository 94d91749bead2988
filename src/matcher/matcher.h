#ifndef FAIREM_MATCHER_MATCHER_H_
#define FAIREM_MATCHER_MATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace fairem {

/// The three families of Table 3.
enum class MatcherFamily { kRuleBased, kNonNeural, kNeural };

const char* MatcherFamilyName(MatcherFamily family);

/// An end-to-end entity matcher. Matchers train on a dataset's train split
/// using only `matching_attrs` and emit confidence scores in [0, 1] for
/// record pairs; thresholding into match/non-match decisions is external
/// (§3.1).
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Display name following Table 3, e.g. "DTMatcher".
  virtual std::string name() const = 0;
  virtual MatcherFamily family() const = 0;

  /// Trains on `dataset.train` (and may tune on `dataset.valid`).
  virtual Status Fit(const EMDataset& dataset, Rng* rng) = 0;

  /// Confidence for one pair of rows (left in table_a, right in table_b).
  virtual Result<double> ScorePair(const EMDataset& dataset, size_t left,
                                   size_t right) const = 0;

  /// Batch scoring. The default loops over ScorePair; one-to-set matchers
  /// (GNEM) override this to exploit the whole candidate set.
  virtual Result<std::vector<double>> PredictScores(
      const EMDataset& dataset, const std::vector<LabeledPair>& pairs) const;

  /// False for matchers that cannot handle a dataset (mirrors Dedupe's
  /// failure to scale to the largest / textual datasets in the paper,
  /// §5.1.4); benches print "-" for those cells.
  virtual bool SupportsDataset(const EMDataset& dataset) const;
};

/// The 13 systems of Table 3.
enum class MatcherKind {
  kBooleanRule,
  kDedupe,
  kDT,
  kSvm,
  kRF,
  kLogReg,
  kLinReg,
  kNB,
  kDeepMatcher,
  kDitto,
  kGnem,
  kHierMatcher,
  kMcan,
};

/// Table 3 display name ("BooleanRuleMatcher", "Ditto", ...).
const char* MatcherKindName(MatcherKind kind);

/// The kind whose MatcherKindName is `name`; NotFound naming `name` if none.
Result<MatcherKind> ParseMatcherKind(const std::string& name);

MatcherFamily FamilyOf(MatcherKind kind);

/// Instantiates a matcher with its paper-default configuration.
std::unique_ptr<Matcher> CreateMatcher(MatcherKind kind);

/// All 13 kinds in Table 3 order.
std::vector<MatcherKind> AllMatcherKinds();

/// The neural subset (Table 5 order).
std::vector<MatcherKind> NeuralMatcherKinds();

}  // namespace fairem

#endif  // FAIREM_MATCHER_MATCHER_H_
