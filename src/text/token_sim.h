#ifndef FAIREM_TEXT_TOKEN_SIM_H_
#define FAIREM_TEXT_TOKEN_SIM_H_

#include <string>
#include <vector>

namespace fairem {

/// Set-based similarities over token bags. All functions treat the inputs
/// as multisets collapsed to sets (the Magellan convention for its
/// automatically generated features) and return values in [0, 1].
/// Two empty inputs are defined to have similarity 1.

/// |A ∩ B| / |A ∪ B|.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// 2|A ∩ B| / (|A| + |B|).
double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b);

/// |A ∩ B| / min(|A|, |B|).
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// |A ∩ B| / sqrt(|A| * |B|)  (binary cosine).
double CosineTokenSimilarity(const std::vector<std::string>& a,
                             const std::vector<std::string>& b);

/// The exact similarity formulas above, over precomputed cardinalities.
/// Every representation of a token set (string vectors, interned u32 ids,
/// bitsets) funnels through these, which is why the interned fast paths
/// return bit-identical doubles to the string kernels: the inputs here are
/// exact integers however the intersection was counted (DESIGN.md §17).
double JaccardFromSetSizes(size_t a, size_t b, size_t intersection);
double DiceFromSetSizes(size_t a, size_t b, size_t intersection);
double OverlapFromSetSizes(size_t a, size_t b, size_t intersection);
double CosineFromSetSizes(size_t a, size_t b, size_t intersection);

}  // namespace fairem

#endif  // FAIREM_TEXT_TOKEN_SIM_H_
