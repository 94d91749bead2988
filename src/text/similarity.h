#ifndef FAIREM_TEXT_SIMILARITY_H_
#define FAIREM_TEXT_SIMILARITY_H_

#include <string>
#include <string_view>

namespace fairem {

/// The catalogue of similarity measures usable in rule predicates and
/// automatic feature generation (the measures named in §4.1 of the paper
/// plus the usual Magellan set).
enum class SimilarityMeasure {
  kExactMatch,
  kLevenshtein,
  kDamerauLevenshtein,
  kHamming,
  kJaro,
  kJaroWinkler,
  kNeedlemanWunsch,
  kSmithWaterman,
  kPrefix,
  kJaccardWord,     // Jaccard over alnum word tokens
  kJaccardQgram3,   // Jaccard over padded 3-grams
  kDiceWord,
  kDiceQgram3,
  kOverlapWord,
  kCosineWord,      // binary cosine over word tokens
  kMongeElkanJaro,  // Monge-Elkan with Jaro inner similarity
  kSoundex,
  kNumericAbsDiff,  // 1 - |a-b| / max(|a|,|b|,1); 0 if either not numeric
  kAbbrevName,      // initials-aware person-name similarity
  kTokenSortRatio,  // Levenshtein over token-sorted strings
  kAffineGap,       // local alignment with affine gap penalties
};

/// Short stable name, e.g. "jaro_winkler".
const char* SimilarityMeasureName(SimilarityMeasure m);

/// Computes `m` between two attribute values; all results are in [0, 1].
double ComputeSimilarity(SimilarityMeasure m, std::string_view a,
                         std::string_view b);

/// All measures, for iteration in tests and tools.
inline constexpr SimilarityMeasure kAllSimilarityMeasures[] = {
    SimilarityMeasure::kExactMatch,     SimilarityMeasure::kLevenshtein,
    SimilarityMeasure::kDamerauLevenshtein, SimilarityMeasure::kHamming,
    SimilarityMeasure::kJaro,           SimilarityMeasure::kJaroWinkler,
    SimilarityMeasure::kNeedlemanWunsch, SimilarityMeasure::kSmithWaterman,
    SimilarityMeasure::kPrefix,         SimilarityMeasure::kJaccardWord,
    SimilarityMeasure::kJaccardQgram3,  SimilarityMeasure::kDiceWord,
    SimilarityMeasure::kDiceQgram3,     SimilarityMeasure::kOverlapWord,
    SimilarityMeasure::kCosineWord,     SimilarityMeasure::kMongeElkanJaro,
    SimilarityMeasure::kSoundex,        SimilarityMeasure::kNumericAbsDiff,
    SimilarityMeasure::kAbbrevName,     SimilarityMeasure::kTokenSortRatio,
    SimilarityMeasure::kAffineGap,
};

}  // namespace fairem

#endif  // FAIREM_TEXT_SIMILARITY_H_
