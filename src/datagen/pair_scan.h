#ifndef FAIREM_DATAGEN_PAIR_SCAN_H_
#define FAIREM_DATAGEN_PAIR_SCAN_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/data/dataset.h"
#include "src/text/edit_distance.h"

namespace fairem {

/// The pair searches the generators share: near-value pairs for blocked
/// hard negatives, same-entity pairs for matches, and the minimum-distance
/// rule that keeps generated names apart (DESIGN.md §21). Each returns
/// exactly what the all-pairs loop it replaces returned, in the same order.

/// One view per row of `table`'s column `col`; nullopt for a null cell.
/// The views point into the table.
std::vector<std::optional<std::string_view>> ColumnValues(const Table& table,
                                                          size_t col);

/// Every row pair (i, j) with JaroWinklerSimilarity(*left[i], *right[j]) >=
/// threshold, in row-major order: the pairs, and the order, of the nested
/// loop over all rows. A nullopt value pairs with nothing. Each side's
/// distinct values are interned once, and JaroWinklerAtLeast's test runs
/// once per distinct (left, right) value pair, its count bound first.
std::vector<std::pair<size_t, size_t>> JaroWinklerNearPairs(
    const std::vector<std::optional<std::string_view>>& left,
    const std::vector<std::optional<std::string_view>>& right,
    double threshold);

/// Every (i, j) whose rows of `a` and `b` share an entity id, as a match,
/// in row-major order.
std::vector<LabeledPair> SameEntityPairs(const Table& a, const Table& b);

/// Names kept at least `max_edits` + 1 Levenshtein edits apart.
/// HasNear(name) equals a linear LevenshteinWithin(name, existing,
/// max_edits) scan over the names added so far. It visits only names whose
/// length is within k = max_edits of the candidate's, and skips one whose
/// character counts differ from the candidate's by more than 2k in L1
/// before calling the kernel: k edits can change neither by more.
class MinDistanceNameSet {
 public:
  explicit MinDistanceNameSet(int max_edits) : max_edits_(max_edits) {}

  bool HasNear(std::string_view name) const;
  void Add(std::string name);
  size_t size() const { return size_; }

 private:
  struct Entry {
    std::string name;
    CharCounts counts;
  };
  int max_edits_;
  size_t size_ = 0;
  /// The names by length: a candidate visits only the lengths k edits
  /// can reach.
  std::vector<std::vector<Entry>> by_length_;
};

}  // namespace fairem

#endif  // FAIREM_DATAGEN_PAIR_SCAN_H_
