#ifndef FAIREM_TEXT_HYBRID_SIM_H_
#define FAIREM_TEXT_HYBRID_SIM_H_

#include <string>
#include <string_view>
#include <vector>

namespace fairem {

/// Signature of a secondary (character-level) similarity used inside hybrid
/// token measures.
using CharSimilarityFn = double (*)(std::string_view, std::string_view);

/// Symmetric Monge-Elkan similarity: mean(ME(a, b), ME(b, a)), where
/// ME(a, b) averages, over `a`'s tokens, the best `inner` match in `b`.
/// Returns 1 when both inputs are empty and 0 when exactly one is.
double SymmetricMongeElkan(const std::vector<std::string>& a,
                           const std::vector<std::string>& b,
                           CharSimilarityFn inner);

}  // namespace fairem

#endif  // FAIREM_TEXT_HYBRID_SIM_H_
