#ifndef SCCF_TENSOR_TENSOR_H_
#define SCCF_TENSOR_TENSOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/random.h"

namespace sccf {

/// Dense row-major float32 tensor. Rank 0 (scalar), 1 (vector), or 2
/// (matrix) cover every model in this library; higher ranks are rejected.
///
/// Copyable (deep copy) and movable. Shape is immutable after construction
/// except through Reshape, which preserves the element count.
class Tensor {
 public:
  /// Rank-0 scalar initialised to 0.
  Tensor() : shape_() , data_(1, 0.0f) {}

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(std::vector<size_t> shape);

  /// Scalar tensor.
  static Tensor Scalar(float v);

  /// Zero / constant / random factories.
  static Tensor Zeros(std::vector<size_t> shape);
  static Tensor Full(std::vector<size_t> shape, float v);
  /// Entries ~ TruncatedNormal(0, stddev); the paper's initializer.
  static Tensor TruncatedNormal(std::vector<size_t> shape, float stddev,
                                Rng& rng);
  /// 1-D tensor from explicit values.
  static Tensor FromVector(const std::vector<float>& v);
  /// 2-D tensor from explicit row-major values. Pre: v.size() == r*c.
  static Tensor FromMatrix(size_t rows, size_t cols,
                           const std::vector<float>& v);

  size_t rank() const { return shape_.size(); }
  const std::vector<size_t>& shape() const { return shape_; }
  size_t size() const { return data_.size(); }

  /// Rows/cols of a matrix; a vector is treated as 1 x n for rows()/cols().
  size_t rows() const;
  size_t cols() const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Flat element access.
  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  /// 2-D element access. Pre: rank() == 2.
  float& at(size_t r, size_t c) {
    return data_[r * shape_[1] + c];
  }
  float at(size_t r, size_t c) const {
    return data_[r * shape_[1] + c];
  }

  /// Scalar value. Pre: size() == 1.
  float scalar() const {
    SCCF_CHECK_EQ(size(), 1u);
    return data_[0];
  }

  void Fill(float v);
  void Zero() { Fill(0.0f); }

  /// Changes the shape in place; the element count must be preserved.
  void Reshape(std::vector<size_t> shape);

  /// Sum of squares of all entries.
  double SquaredL2Norm() const;

  /// "f32[2, 3]"-style debug string.
  std::string ShapeString() const;

  /// True if shapes are identical and all entries differ by <= atol.
  bool AllClose(const Tensor& other, float atol = 1e-5f) const;

 private:
  std::vector<size_t> shape_;
  std::vector<float> data_;
};

namespace tensor_ops {

/// C = alpha * op(A) @ op(B) + beta * C, where op is optional transpose.
/// Shapes: op(A) is m x k, op(B) is k x n, C is m x n. Blocked kernel;
/// no external BLAS dependency.
void Gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          float alpha, float beta, Tensor* c);

/// y = A @ x (A: m x n, x: n, y: m).
void Gemv(const Tensor& a, const float* x, float* y);

/// Dot product of two length-n float arrays. Forwards to the
/// runtime-dispatched SIMD kernels layer (simd/kernels.h), as do Axpy,
/// Norm, and Cosine below; batch-oriented callers should use
/// simd::DotBatch directly.
float Dot(const float* a, const float* b, size_t n);

/// y += alpha * x for length-n arrays.
void Axpy(float alpha, const float* x, float* y, size_t n);

/// L2 norm of a length-n array.
float Norm(const float* a, size_t n);

/// Cosine similarity; returns 0 when either vector is all-zero.
float Cosine(const float* a, const float* b, size_t n);

/// In-place numerically stable softmax over a length-n array.
void SoftmaxInPlace(float* x, size_t n);

}  // namespace tensor_ops
}  // namespace sccf

#endif  // SCCF_TENSOR_TENSOR_H_
