#ifndef SCCF_SIMD_KERNEL_TABLE_H_
#define SCCF_SIMD_KERNEL_TABLE_H_

#include <cstddef>
#include <cstdint>

namespace sccf::simd::internal {

/// Function-pointer table for one SIMD variant. The dispatcher in
/// kernels.cc resolves exactly one table at startup (or on SCCF_SIMD /
/// ForceVariant override) and every public kernel routes through it.
///
/// Only the primitives that differ per ISA live here; derived kernels
/// (Cosine, Norm, NormalizeCopy/InPlace, CosineI8) are built on top of
/// these in kernels.cc so policy — e.g. the zero-norm guard — has exactly
/// one definition regardless of variant.
struct KernelTable {
  /// Inner product of two length-n arrays.
  float (*dot)(const float* a, const float* b, size_t n);
  /// sum_i (a[i] - b[i])^2.
  float (*squared_l2)(const float* a, const float* b, size_t n);
  /// y += alpha * x, length n.
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  /// out[r] = dot(q, base + r*dim) for r in [0, count). Rows are
  /// register-blocked so the query vector is loaded once per block.
  void (*dot_batch)(const float* q, const float* base, size_t count,
                    size_t dim, float* out);
  /// Raw inner product of an fp32 query against a length-n int8 code row:
  /// sum_i q[i] * c[i], accumulated in fp32. The affine SQ8 correction
  /// (scale * raw + offset * sum(q)) is applied by the derived kernels in
  /// kernels.cc, not here, so each variant only widens and multiplies.
  float (*dot_i8)(const float* q, const int8_t* c, size_t n);
  /// out[r] = dot_i8(q, base + r*dim) for r in [0, count). Rows are
  /// register-blocked like dot_batch.
  void (*dot_batch_i8)(const float* q, const int8_t* base, size_t count,
                       size_t dim, float* out);
};

/// Always available; the reference implementation every variant must match.
const KernelTable* ScalarTable();
/// Return the variant's table, or nullptr when the compiler could not
/// target the ISA (table presence says nothing about the running CPU —
/// the dispatcher checks CPUID separately).
const KernelTable* Avx2Table();
const KernelTable* Avx512Table();

}  // namespace sccf::simd::internal

#endif  // SCCF_SIMD_KERNEL_TABLE_H_
