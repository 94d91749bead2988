#include "src/text/token_sim.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace fairem {
namespace {

std::unordered_set<std::string> ToSet(const std::vector<std::string>& v) {
  return std::unordered_set<std::string>(v.begin(), v.end());
}

struct SetSizes {
  size_t a;
  size_t b;
  size_t intersection;
};

SetSizes ComputeSizes(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  auto sa = ToSet(a);
  auto sb = ToSet(b);
  // Iterate over the smaller set.
  const auto& small = sa.size() <= sb.size() ? sa : sb;
  const auto& large = sa.size() <= sb.size() ? sb : sa;
  size_t inter = 0;
  for (const auto& t : small) {
    if (large.count(t) > 0) ++inter;
  }
  return {sa.size(), sb.size(), inter};
}

}  // namespace

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  SetSizes s = ComputeSizes(a, b);
  return JaccardFromSetSizes(s.a, s.b, s.intersection);
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  SetSizes s = ComputeSizes(a, b);
  return DiceFromSetSizes(s.a, s.b, s.intersection);
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  SetSizes s = ComputeSizes(a, b);
  return OverlapFromSetSizes(s.a, s.b, s.intersection);
}

double CosineTokenSimilarity(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
  SetSizes s = ComputeSizes(a, b);
  return CosineFromSetSizes(s.a, s.b, s.intersection);
}

double JaccardFromSetSizes(size_t a, size_t b, size_t intersection) {
  size_t uni = a + b - intersection;
  if (uni == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

double DiceFromSetSizes(size_t a, size_t b, size_t intersection) {
  if (a + b == 0) return 1.0;
  return 2.0 * static_cast<double>(intersection) / static_cast<double>(a + b);
}

double OverlapFromSetSizes(size_t a, size_t b, size_t intersection) {
  size_t min_size = std::min(a, b);
  if (min_size == 0) return a == b ? 1.0 : 0.0;
  return static_cast<double>(intersection) / static_cast<double>(min_size);
}

double CosineFromSetSizes(size_t a, size_t b, size_t intersection) {
  if (a == 0 && b == 0) return 1.0;
  if (a == 0 || b == 0) return 0.0;
  return static_cast<double>(intersection) /
         std::sqrt(static_cast<double>(a) * static_cast<double>(b));
}

}  // namespace fairem
