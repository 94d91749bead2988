#ifndef FAIREM_FEATURE_FEATURE_GEN_H_
#define FAIREM_FEATURE_FEATURE_GEN_H_

#include <string>
#include <vector>

#include "src/block/blocker.h"
#include "src/data/dataset.h"
#include "src/data/table.h"
#include "src/text/similarity.h"
#include "src/util/result.h"

namespace fairem {

/// Inferred attribute type driving which similarity features are generated
/// (the Magellan "automatic feature generation" convention the paper uses
/// for all non-neural matchers, §5.1.4).
enum class AttrType {
  kNumeric,      // all non-null values parse as numbers
  kShortString,  // short, mostly single-token values (names, years, venues)
  kLongString,   // multi-token textual values (titles, descriptions)
};

/// Infers the type of `attr` from the non-null values of both tables.
Result<AttrType> InferAttrType(const Table& a, const Table& b,
                               const std::string& attr);

/// One generated feature: a (attribute, similarity measure) pair.
struct FeatureDef {
  std::string attr;
  SimilarityMeasure measure;

  /// Stable display name, e.g. "title_jaccard_word".
  std::string name() const {
    return attr + "_" + SimilarityMeasureName(measure);
  }
};

/// Generates the feature set for the given matching attributes, mirroring
/// Magellan: numeric attributes get exact + numeric distance; short strings
/// get character-level measures; long strings get token-level measures.
Result<std::vector<FeatureDef>> GenerateFeatures(
    const Table& a, const Table& b, const std::vector<std::string>& attrs);

/// Computes the feature vector for one pair. Features over a null cell (on
/// either side) evaluate to 0, matching the "fill missing with 0" policy.
Result<std::vector<double>> ExtractFeatures(
    const std::vector<FeatureDef>& defs, const Table& a, const Table& b,
    size_t left_row, size_t right_row);

/// Extracts the feature matrix and label vector for a set of labelled pairs.
struct FeatureTable {
  std::vector<FeatureDef> defs;
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;  // 1 = match, 0 = non-match
};

/// Fills the table one column pair at a time: that pair's two prepared
/// columns are built, its defs written for every pair, and the columns
/// dropped before the next (DESIGN.md §22). A non-finite value fails the
/// build, naming the attribute of the first pair's first non-finite def.
Result<FeatureTable> BuildFeatureTable(const std::vector<FeatureDef>& defs,
                                       const Table& a, const Table& b,
                                       const std::vector<LabeledPair>& pairs);

/// The tables every feature-based matcher of a dataset fits and predicts
/// on: its generated defs, and one table over each of its train and test
/// splits (DESIGN.md §22).
struct DatasetFeatures {
  std::vector<FeatureDef> defs;
  FeatureTable train;
  FeatureTable test;
};

/// GenerateFeatures over `dataset.matching_attrs`, then BuildFeatureTable
/// over its train and its test split. InvalidArgument when no feature is
/// generated.
Result<DatasetFeatures> BuildDatasetFeatures(const EMDataset& dataset);

}  // namespace fairem

#endif  // FAIREM_FEATURE_FEATURE_GEN_H_
