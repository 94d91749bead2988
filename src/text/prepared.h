#ifndef FAIREM_TEXT_PREPARED_H_
#define FAIREM_TEXT_PREPARED_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/data/table.h"
#include "src/text/similarity.h"

namespace fairem {

/// Which derived representations a PreparedValue carries. Feature
/// extraction derives the needed set from the similarity measures used on
/// a column, so a numeric column never pays for q-gram sets and a long-text
/// column never pays for a numeric parse.
struct PreparedNeeds {
  bool word_tokens = false;   // AlnumTokenize (order + duplicates preserved)
  bool word_set = false;      // sorted-unique word tokens
  bool qgram_set = false;     // sorted-unique padded 3-grams
  bool numeric = false;       // ParseDouble result
  bool token_sorted = false;  // " "-joined sorted tokens (TokenSortRatio)

  void MergeFrom(const PreparedNeeds& other) {
    word_tokens |= other.word_tokens;
    word_set |= other.word_set;
    qgram_set |= other.qgram_set;
    numeric |= other.numeric;
    token_sorted |= other.token_sorted;
  }
};

/// The representations PairSimilarity(measure) needs for one measure.
/// Measures not listed here (pure character-level ones) need only `raw`.
PreparedNeeds NeedsForMeasure(SimilarityMeasure m);

/// One record's cell, tokenized/normalized exactly once. The pairwise
/// kernels that used to call AlnumTokenize / QGrams / ParseDouble per pair
/// read these instead, which turns the O(pairs) re-derivation of the hot
/// matcher path into O(records).
struct PreparedValue {
  std::string_view raw;  // view into the owning Table's cell storage
  bool is_null = true;

  std::vector<std::string> word_tokens;
  std::vector<std::string> word_set;   // sorted unique word tokens
  std::vector<std::string> qgram_set;  // sorted unique padded 3-grams
  std::string token_sorted;

  /// Interned-token fast path (DESIGN.md §17): word_set / qgram_set mapped
  /// through the column pair's TokenInterner to sorted-unique dense u32
  /// ids, so the per-pair set intersections become u32 merges instead of
  /// string comparisons. When the column's id universe is small the same
  /// sets are additionally materialized as bitsets (64 ids per word) and
  /// intersection is AND + popcount. Present only when BuildRows ran with
  /// interners on a vectorized SIMD tier; ids from different interners are
  /// not comparable.
  bool has_ids = false;
  std::vector<uint32_t> word_ids;
  std::vector<uint32_t> qgram_ids;
  std::vector<uint64_t> word_bits;
  std::vector<uint64_t> qgram_bits;

  double numeric_value = 0.0;
  bool is_numeric = false;
};

/// Maps tokens to dense uint32_t ids in first-encounter order. One
/// interner is shared by the two table sides of a column pair (the a-side
/// BuildRows interns first, then the b-side), which is what makes the ids
/// comparable across sides. Interning is sequential in row order, so the
/// id assignment — and every downstream double — is independent of
/// --intra_jobs. Not thread-safe; the builder owns it for the duration of
/// the two BuildRows calls and may drop it afterwards (ids are baked into
/// the PreparedValues).
class TokenInterner {
 public:
  /// The id of `token`, assigning the next dense id on first encounter.
  uint32_t Intern(std::string_view token);

  /// Number of distinct tokens interned so far (the id universe).
  size_t size() const { return ids_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> ids_;
};

/// The word- and 3-gram-token interners of one column pair. Kept separate
/// so a column with many q-grams but few words still gets the small word
/// universe (and its bitset fast path).
struct ColumnInterners {
  TokenInterner words;
  TokenInterner qgrams;
};

/// Builds the prepared form of one cell. `raw` must outlive the result.
PreparedValue PrepareValue(std::string_view raw, bool is_null,
                           const PreparedNeeds& needs);

/// ComputeSimilarity over prepared views: byte-identical doubles to
/// ComputeSimilarity(m, a.raw, b.raw) — token measures compute the same
/// set sizes from the sorted-unique vectors the unordered_set path would
/// build, everything else falls through to the raw kernels. Null handling
/// stays with the caller (the feature path maps null to 0 before here).
double ComputeSimilarity(SimilarityMeasure m, const PreparedValue& a,
                         const PreparedValue& b);

/// A per-(table, column) cache of PreparedValue for exactly the rows a pair
/// list references. BuildFeatureTable builds the two columns of one column
/// pair over one ColumnInterners, fills that pair's features for every
/// pair, and drops them before the next column pair, so at most two are
/// alive at once (DESIGN.md §22). BuildRows chunks the row list over the
/// global thread pool (disjoint slots, deterministic); afterwards Get is
/// const and safe from any thread.
///
/// Counters: `fairem.prepared.builds` counts cells prepared,
/// `fairem.prepared.cache_hits` counts pair-side lookups served from the
/// cache (every hit is a tokenization/parse the old path re-ran).
class PreparedColumn {
 public:
  PreparedColumn() = default;

  /// Prepares `rows` (deduplicated indices into `table`) for column `col`.
  /// Unreferenced rows stay unprepared and must not be fetched. When
  /// `interners` is non-null and the active SIMD tier is vectorized, word
  /// and q-gram sets are additionally interned to u32 id sets (and bitsets
  /// for small universes); pass the same ColumnInterners to both sides of
  /// a column pair so the ids are comparable.
  void BuildRows(const Table& table, size_t col,
                 const std::vector<size_t>& rows, const PreparedNeeds& needs,
                 ColumnInterners* interners = nullptr);

  /// The prepared cell for a row passed to BuildRows.
  const PreparedValue& Get(size_t row) const { return values_[row]; }

 private:
  std::vector<PreparedValue> values_;
};

/// Bumps fairem.prepared.cache_hits by `n` (batched by chunk in the hot
/// loop so the atomic is not contended per pair).
void AddPreparedCacheHits(uint64_t n);

}  // namespace fairem

#endif  // FAIREM_TEXT_PREPARED_H_
