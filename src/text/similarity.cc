#include "src/text/similarity.h"

#include <algorithm>
#include <cmath>

#include "src/text/edit_distance.h"
#include "src/text/hybrid_sim.h"
#include "src/text/name_sim.h"
#include "src/text/phonetic.h"
#include "src/text/token_sim.h"
#include "src/text/tokenize.h"
#include "src/util/string_util.h"

namespace fairem {

const char* SimilarityMeasureName(SimilarityMeasure m) {
  switch (m) {
    case SimilarityMeasure::kExactMatch:
      return "exact_match";
    case SimilarityMeasure::kLevenshtein:
      return "levenshtein";
    case SimilarityMeasure::kDamerauLevenshtein:
      return "damerau_levenshtein";
    case SimilarityMeasure::kHamming:
      return "hamming";
    case SimilarityMeasure::kJaro:
      return "jaro";
    case SimilarityMeasure::kJaroWinkler:
      return "jaro_winkler";
    case SimilarityMeasure::kNeedlemanWunsch:
      return "needleman_wunsch";
    case SimilarityMeasure::kSmithWaterman:
      return "smith_waterman";
    case SimilarityMeasure::kPrefix:
      return "prefix";
    case SimilarityMeasure::kJaccardWord:
      return "jaccard_word";
    case SimilarityMeasure::kJaccardQgram3:
      return "jaccard_qgram3";
    case SimilarityMeasure::kDiceWord:
      return "dice_word";
    case SimilarityMeasure::kDiceQgram3:
      return "dice_qgram3";
    case SimilarityMeasure::kOverlapWord:
      return "overlap_word";
    case SimilarityMeasure::kCosineWord:
      return "cosine_word";
    case SimilarityMeasure::kMongeElkanJaro:
      return "monge_elkan_jaro";
    case SimilarityMeasure::kSoundex:
      return "soundex";
    case SimilarityMeasure::kNumericAbsDiff:
      return "numeric_abs_diff";
    case SimilarityMeasure::kAbbrevName:
      return "abbrev_name";
    case SimilarityMeasure::kTokenSortRatio:
      return "token_sort_ratio";
    case SimilarityMeasure::kAffineGap:
      return "affine_gap";
  }
  return "unknown";
}

double ComputeSimilarity(SimilarityMeasure m, std::string_view a,
                         std::string_view b) {
  switch (m) {
    case SimilarityMeasure::kExactMatch:
      return ExactMatchSimilarity(a, b);
    case SimilarityMeasure::kLevenshtein:
      return LevenshteinSimilarity(a, b);
    case SimilarityMeasure::kDamerauLevenshtein: {
      size_t max_len = std::max(a.size(), b.size());
      if (max_len == 0) return 1.0;
      return 1.0 - static_cast<double>(DamerauLevenshteinDistance(a, b)) /
                       static_cast<double>(max_len);
    }
    case SimilarityMeasure::kHamming:
      return HammingSimilarity(a, b);
    case SimilarityMeasure::kJaro:
      return JaroSimilarity(a, b);
    case SimilarityMeasure::kJaroWinkler:
      return JaroWinklerSimilarity(a, b);
    case SimilarityMeasure::kNeedlemanWunsch:
      return NeedlemanWunschSimilarity(a, b);
    case SimilarityMeasure::kSmithWaterman:
      return SmithWatermanSimilarity(a, b);
    case SimilarityMeasure::kPrefix:
      return PrefixSimilarity(a, b);
    case SimilarityMeasure::kJaccardWord:
      return JaccardSimilarity(AlnumTokenize(a), AlnumTokenize(b));
    case SimilarityMeasure::kJaccardQgram3:
      return JaccardSimilarity(QGrams(a, 3), QGrams(b, 3));
    case SimilarityMeasure::kDiceWord:
      return DiceSimilarity(AlnumTokenize(a), AlnumTokenize(b));
    case SimilarityMeasure::kDiceQgram3:
      return DiceSimilarity(QGrams(a, 3), QGrams(b, 3));
    case SimilarityMeasure::kOverlapWord:
      return OverlapCoefficient(AlnumTokenize(a), AlnumTokenize(b));
    case SimilarityMeasure::kCosineWord:
      return CosineTokenSimilarity(AlnumTokenize(a), AlnumTokenize(b));
    case SimilarityMeasure::kMongeElkanJaro:
      return SymmetricMongeElkan(AlnumTokenize(a), AlnumTokenize(b),
                                 &JaroSimilarity);
    case SimilarityMeasure::kSoundex:
      return SoundexSimilarity(a, b);
    case SimilarityMeasure::kNumericAbsDiff: {
      double va = 0.0;
      double vb = 0.0;
      if (!ParseDouble(a, &va) || !ParseDouble(b, &vb)) return 0.0;
      double denom = std::max({std::fabs(va), std::fabs(vb), 1.0});
      return std::clamp(1.0 - std::fabs(va - vb) / denom, 0.0, 1.0);
    }
    case SimilarityMeasure::kAbbrevName:
      return AbbreviationAwareNameSimilarity(a, b);
    case SimilarityMeasure::kTokenSortRatio:
      return TokenSortRatio(a, b);
    case SimilarityMeasure::kAffineGap:
      return AffineGapSimilarity(a, b);
  }
  return 0.0;
}

}  // namespace fairem
