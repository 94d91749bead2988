#ifndef FAIREM_DATA_DATASET_H_
#define FAIREM_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/table.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace fairem {

/// A candidate record pair: indices into table A and table B, plus the
/// ground-truth match label.
struct LabeledPair {
  size_t left = 0;   // row index into table_a
  size_t right = 0;  // row index into table_b
  bool is_match = false;
};

/// The kind of sensitive attribute, per Table 1 of the paper.
enum class SensitiveAttrKind {
  kBinary,         // e.g. gender = {male, female}
  kMultiValued,    // one of several exclusive values, e.g. venue
  kSetwise,        // a subset of values, e.g. genre = {Pop, Rock}
};

const char* SensitiveAttrKindName(SensitiveAttrKind kind);

/// A complete entity-matching task: two tables, labelled pairs split into
/// train/valid/test, the attributes used for matching, and the
/// fairness-sensitive attribute (which matchers must never see as input).
struct EMDataset {
  std::string name;
  Table table_a;
  Table table_b;

  std::vector<LabeledPair> train;
  std::vector<LabeledPair> valid;
  std::vector<LabeledPair> test;

  /// Attributes visible to matchers. May include the sensitive attribute —
  /// the paper's social datasets match on {fullName, country} and
  /// {firstName, lastName, race} where country/race are also audited.
  std::vector<std::string> matching_attrs;

  /// Sensitive attribute name; must exist in both schemas.
  std::string sensitive_attr;
  SensitiveAttrKind sensitive_kind = SensitiveAttrKind::kBinary;

  /// Separator for setwise attribute values ("Pop|Rock").
  char setwise_separator = '|';

  /// Default matching threshold the paper used for this dataset
  /// (0.5 everywhere, 0.9 for Cricket).
  double default_threshold = 0.5;

  /// The labelled-pair count of the full-scale task this dataset simulates
  /// (Table 4's train+test sizes). Matchers with scalability limits decide
  /// on this, not on the laptop-scale sample (Dedupe "did not scale" for
  /// FacultyMatch and NoFlyCompas in the paper). 0 = unknown/native size.
  size_t simulated_full_scale_pairs = 0;

  /// Fraction of positive labels over all labelled pairs.
  double PositiveRate() const;

  /// All labelled pairs (train + valid + test) concatenated.
  std::vector<LabeledPair> AllPairs() const;

  /// Structural sanity check: pair indices in range, attrs exist, schemas
  /// contain the sensitive attribute.
  Status Validate() const;
};

/// A 64-bit FNV-1a digest of everything a matcher's test scores can depend
/// on: the name, both tables (names, schemas, and every row's entity id and
/// cells, nulls marked apart from ""), the train/valid/test pairs, the
/// matching and sensitive attributes, the threshold, and
/// simulated_full_scale_pairs. Fields are length-prefixed, so no two
/// datasets differ only in where one field ends and the next begins. The
/// score cache (DESIGN.md §18) keys its entries on it.
uint64_t DatasetFingerprint(const EMDataset& dataset);

/// Shuffles `pairs` and splits into train/valid/test with the given
/// fractions (test gets the remainder). Fractions must be in [0,1] and sum
/// to <= 1.
Status SplitPairs(std::vector<LabeledPair> pairs, double train_frac,
                  double valid_frac, Rng* rng,
                  std::vector<LabeledPair>* train,
                  std::vector<LabeledPair>* valid,
                  std::vector<LabeledPair>* test);

}  // namespace fairem

#endif  // FAIREM_DATA_DATASET_H_
