#ifndef FAIREM_NN_VECOPS_H_
#define FAIREM_NN_VECOPS_H_

#include <cstddef>
#include <vector>

namespace fairem {
namespace nn {

using Vec = std::vector<float>;

/// Dot product over the common prefix of `a` and `b`.
float Dot(const Vec& a, const Vec& b);

/// L2 norm.
float Norm(const Vec& a);

/// Cosine similarity (0 if either vector is all-zero).
float Cosine(const Vec& a, const Vec& b);

/// a += scale * b (sizes must match).
void Axpy(float scale, const Vec& b, Vec* a);

/// Elementwise |a - b| averaged (normalized L1 distance).
float MeanAbsDiff(const Vec& a, const Vec& b);

/// In-place softmax; empty input is a no-op.
void SoftmaxInPlace(std::vector<float>* logits);

/// Mean of a list of equally sized vectors; empty list yields a zero vector
/// of the given dim.
Vec Mean(const std::vector<Vec>& vectors, size_t dim);

}  // namespace nn
}  // namespace fairem

#endif  // FAIREM_NN_VECOPS_H_
