#ifndef FAIREM_UTIL_RNG_H_
#define FAIREM_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fairem {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component in the library takes an explicit
/// seed so that datasets, splits, and model training are fully reproducible
/// across runs and platforms.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Bernoulli trial with success probability `p`.
  bool NextBool(double p);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Uniformly picks one element of a non-empty vector.
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    return items[static_cast<size_t>(NextBounded(items.size()))];
  }

  /// Samples `k` distinct indices from [0, n) without replacement
  /// (k is clamped to n). Result order is random.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
  bool have_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace fairem

#endif  // FAIREM_UTIL_RNG_H_
