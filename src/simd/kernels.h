#ifndef SCCF_SIMD_KERNELS_H_
#define SCCF_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"

/// Runtime-dispatched SIMD similarity kernels.
///
/// Everything hot in the serving path — brute-force scans, IVF centroid
/// ranking, HNSW edge scoring, UI dot-product scoring, the top-k
/// selector's threshold filter — funnels through
/// this layer. Three variants (scalar, AVX2+FMA, AVX-512F) are compiled
/// into separate translation units; a function-pointer table is resolved
/// once at startup from CPUID, overridable with SCCF_SIMD=scalar|avx2|
/// avx512 (unknown or CPU-unsupported values fall back to the best
/// supported variant with a warning). See docs/PERFORMANCE.md.
///
/// Layering: util <- simd <- tensor <- everything else. This header must
/// not depend on tensor/ or index/.
namespace sccf::simd {

enum class Variant : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar", "avx2", or "avx512".
const char* VariantName(Variant v);

/// True when the variant was both compiled in and is supported by the
/// running CPU. kScalar is always supported.
bool VariantSupported(Variant v);

/// The variant all kernels currently dispatch to.
Variant ActiveVariant();

/// Forces dispatch to `v` for the rest of the process (tests, benchmarks).
/// Fails with InvalidArgument when the variant is not supported here.
Status ForceVariant(Variant v);

/// Re-resolves the active variant: SCCF_SIMD env override if set and
/// supported, otherwise the best CPU-supported variant. Called implicitly
/// on first kernel use; exposed so tests can exercise the env path.
void ResetVariantFromEnv();

/// Inner product of two length-n float arrays.
float Dot(const float* a, const float* b, size_t n);

/// Squared Euclidean distance: sum_i (a[i] - b[i])^2.
float SquaredL2(const float* a, const float* b, size_t n);

/// L2 norm, clamped at 0 before the sqrt so FP noise cannot produce NaN.
float Norm(const float* a, size_t n);

/// Cosine similarity. The zero-norm guard lives HERE and only here:
/// if either vector has zero norm the similarity is defined as 0.
float Cosine(const float* a, const float* b, size_t n);

/// y += alpha * x for length-n arrays.
void Axpy(float alpha, const float* x, float* y, size_t n);

/// out = in / ||in||; a zero-norm input writes all zeros. Same policy as
/// Cosine: one definition of zero-norm handling for every index backend.
void NormalizeCopy(const float* in, float* out, size_t n);

/// v /= ||v|| in place; a zero-norm input is left untouched (all zeros).
void NormalizeInPlace(float* v, size_t n);

/// out[r] = Dot(q, base + r*dim) for r in [0, count). `base` is a dense
/// row-major matrix of `count` rows. This is the brute-force scan
/// primitive: rows are blocked so each query load is amortized over
/// several rows.
void DotBatch(const float* q, const float* base, size_t count, size_t dim,
              float* out);

/// ---- Int8 (SQ8) kernels -----------------------------------------------
///
/// The quant layer stores rows as int8 codes with a per-row affine map
/// value = scale * code + offset (see src/quant/sq8.h). These kernels
/// score an fp32 query against code rows without materializing decoded
/// floats: dot(q, decoded_row) = scale * DotI8(q, codes) + offset * qsum
/// where qsum = sum_i q[i]. Callers precompute qsum once per query.

/// Raw widened inner product sum_i q[i] * c[i], fp32 accumulation. This is
/// the per-variant primitive; it carries no scale/offset semantics.
float DotI8(const float* q, const int8_t* c, size_t n);

/// out[r] = DotI8(q, base + r*dim) for r in [0, count). `base` is a dense
/// row-major int8 code matrix.
void DotBatchI8(const float* q, const int8_t* base, size_t count,
                size_t dim, float* out);

/// Cosine similarity between fp32 query q and the decoded row
/// scale * c + offset. qsum = sum_i q[i]. Zero-norm policy matches
/// Cosine(): if either side has zero norm the similarity is 0. Derived —
/// identical across variants up to FP reassociation of the raw dot.
float CosineI8(const float* q, const int8_t* c, size_t n, float scale,
               float offset, float qsum);

/// ---- Top-k threshold filter -------------------------------------------
///
/// The top-k selector (index::TopKAccumulator) appends every candidate
/// scoring at or above its running threshold to a buffer. These kernels
/// are that append for a block of scored rows.

/// One scored candidate: an 8-byte word, id first. index::Neighbor is
/// this type.
struct Neighbor {
  int id = -1;
  float score = 0.0f;
};

/// Writes {ids[j], scores[j]} to `out`, in input order, for every j in
/// [0, n) with scores[j] >= threshold and ids[j] != exclude_id, and
/// returns how many it wrote. A NaN score never passes. `out` must have
/// room for n entries: a variant may store whole vectors anywhere in
/// out[0, n), so the entries past the returned count are unspecified.
size_t FilterAtOrAbove(const int* ids, const float* scores, size_t n,
                       float threshold, int exclude_id, Neighbor* out);

/// FilterAtOrAbove with ids[j] = first_id + j and no excluded id.
size_t FilterAtOrAboveDense(int first_id, const float* scores, size_t n,
                            float threshold, Neighbor* out);

}  // namespace sccf::simd

#endif  // SCCF_SIMD_KERNELS_H_
