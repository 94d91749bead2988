#include "src/text/hybrid_sim.h"

#include <algorithm>

#include "src/text/kernel_scratch.h"

namespace fairem {

double SymmetricMongeElkan(const std::vector<std::string>& a,
                           const std::vector<std::string>& b,
                           CharSimilarityFn inner) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Evaluate inner(a[i], b[j]) once into a scratch matrix and take both
  // directions' row/column maxima from it — the naive composition pays the
  // (expensive) inner kernel 2 * |a| * |b| times for the same values. All
  // built-in char similarities are symmetric, which both directions of the
  // old code already assumed; the fuzz suite pins that down for Jaro.
  const size_t an = a.size();
  const size_t bn = b.size();
  std::vector<double>& m = KernelScratch::Get().DoubleBuf(an * bn);
  for (size_t i = 0; i < an; ++i) {
    for (size_t j = 0; j < bn; ++j) {
      m[i * bn + j] = inner(a[i], b[j]);
    }
  }
  // Row maxima give ME(a, b), column maxima ME(b, a).
  double total_ab = 0.0;
  for (size_t i = 0; i < an; ++i) {
    double best = 0.0;
    for (size_t j = 0; j < bn; ++j) best = std::max(best, m[i * bn + j]);
    total_ab += best;
  }
  double total_ba = 0.0;
  for (size_t j = 0; j < bn; ++j) {
    double best = 0.0;
    for (size_t i = 0; i < an; ++i) best = std::max(best, m[i * bn + j]);
    total_ba += best;
  }
  return 0.5 * (total_ab / static_cast<double>(an) +
                total_ba / static_cast<double>(bn));
}

}  // namespace fairem
