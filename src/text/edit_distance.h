#ifndef FAIREM_TEXT_EDIT_DISTANCE_H_
#define FAIREM_TEXT_EDIT_DISTANCE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace fairem {

/// Classic Levenshtein edit distance (insert/delete/substitute, unit costs).
/// Runs the bit-parallel Myers kernel (single 64-bit word when the shorter
/// string fits, blocked otherwise) on the active SIMD tier and the two-row
/// DP reference under FAIREM_SIMD=off; both return the same integer for
/// every input (DESIGN.md §17).
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Levenshtein similarity normalized to [0, 1]:
/// 1 - dist / max(|a|, |b|); 1.0 when both strings are empty.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Banded Levenshtein: the exact distance when it is <= bound, else
/// bound + 1. Only the 2*bound+1 diagonal band is evaluated, with an
/// early exit the moment a whole band row exceeds the bound — the right
/// kernel for "within k edits?" predicates (deduplication, blocking)
/// where the full distance is wasted work. bound < 0 is treated as 0.
int LevenshteinDistanceBounded(std::string_view a, std::string_view b,
                               int bound);

/// LevenshteinDistance(a, b) <= bound, via the banded kernel.
bool LevenshteinWithin(std::string_view a, std::string_view b, int bound);

/// Damerau-Levenshtein (restricted: adjacent transpositions count as one
/// edit).
int DamerauLevenshteinDistance(std::string_view a, std::string_view b);

/// Hamming distance. When lengths differ, the length difference is added to
/// the count of mismatching positions in the common prefix (a common EM
/// convention that keeps the measure total).
int HammingDistance(std::string_view a, std::string_view b);

/// Hamming similarity in [0, 1]: 1 - dist / max(|a|, |b|).
double HammingSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0, 1] with standard prefix scaling
/// (p = 0.1, prefix capped at 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// A string's character counts indexed by byte. 32-bit, so no run of one
/// byte can wrap a count.
using ByteCounts = std::array<uint32_t, 256>;

/// A string's character counts kept sparse: each distinct byte once, with
/// its count. Built once per value by callers that compare one value with
/// many, and compared against the other value's ByteCounts in O(distinct
/// bytes).
class CharCounts {
 public:
  explicit CharCounts(std::string_view s);

  /// Sum over bytes c of min(count(c), counts[c]): the characters this
  /// string shares with the string `counts` holds, with multiplicity.
  size_t Shared(const ByteCounts& counts) const;

  /// Adds this string's counts to `counts`; RemoveFrom takes them out.
  void AddTo(ByteCounts* counts) const;
  void RemoveFrom(ByteCounts* counts) const;

 private:
  struct Entry {
    uint8_t byte;
    uint32_t count;
  };
  std::vector<Entry> entries_;
};

/// JaroWinklerSimilarity(a, b) >= threshold, the same answer for every
/// input. A pair whose score provably falls short is rejected by
/// JaroWinklerMayReach without running the Jaro kernel (DESIGN.md §21).
bool JaroWinklerAtLeast(std::string_view a, std::string_view b,
                        double threshold);

/// The filter half of JaroWinklerAtLeast: false only when
/// JaroWinklerSimilarity(a, b) < threshold is certain. `shared` is
/// CharCounts::Shared for the pair. The bound takes the Jaro matches as
/// `shared` (each match pairs two equal characters), no transpositions and
/// the exact prefix bonus, and rejects only below threshold minus a fixed
/// rounding margin.
bool JaroWinklerMayReach(std::string_view a, std::string_view b,
                         size_t shared, double threshold);

/// Needleman-Wunsch global alignment score normalized to [0, 1]
/// (match = +1, mismatch/gap = -1; score scaled by max length).
double NeedlemanWunschSimilarity(std::string_view a, std::string_view b);

/// Smith-Waterman local alignment score normalized to [0, 1]
/// (match = +2, mismatch = -1, gap = -1; score scaled by 2 * min length).
double SmithWatermanSimilarity(std::string_view a, std::string_view b);

/// Longest common prefix length divided by max length; 1.0 for two empty
/// strings.
double PrefixSimilarity(std::string_view a, std::string_view b);

/// Exact equality as a 0/1 similarity.
double ExactMatchSimilarity(std::string_view a, std::string_view b);

namespace internal {

/// The pre-vectorization two-row DP — the FAIREM_SIMD=off production path
/// and the reference the differential fuzz tests compare every dispatched
/// tier against.
int LevenshteinDistanceScalar(std::string_view a, std::string_view b);

}  // namespace internal

}  // namespace fairem

#endif  // FAIREM_TEXT_EDIT_DISTANCE_H_
