// AVX-512F variant of the kernel table, compiled with -mavx512f only (see
// CMakeLists.txt); remainders use masked loads/stores so there is no
// scalar tail. Nothing here may be called unless the dispatcher verified
// CPUID support; without compiler support the table degrades to nullptr.

#include "simd/kernel_table.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace sccf::simd::internal {

#if defined(__AVX512F__)

namespace {

inline __mmask16 TailMask(size_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

float DotAvx512(const float* a, const float* b, size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < n) {
    const __mmask16 m = TailMask(n - i);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                           _mm512_maskz_loadu_ps(m, b + i), acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float SquaredL2Avx512(const float* a, const float* b, size_t n) {
  __m512 acc = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  if (i < n) {
    const __mmask16 m = TailMask(n - i);
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a + i),
                                   _mm512_maskz_loadu_ps(m, b + i));
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  return _mm512_reduce_add_ps(acc);
}

void AxpyAvx512(float alpha, const float* x, float* y, size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i),
                               _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 m = TailMask(n - i);
    const __m512 r = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, x + i),
                                     _mm512_maskz_loadu_ps(m, y + i));
    _mm512_mask_storeu_ps(y + i, m, r);
  }
}

void DotBatchAvx512(const float* q, const float* base, size_t count,
                    size_t dim, float* out) {
  // Four rows per block share each 16-wide query load (see the AVX2
  // variant for rationale); masked loads handle the dim remainder.
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* r0 = base + (r + 0) * dim;
    const float* r1 = base + (r + 1) * dim;
    const float* r2 = base + (r + 2) * dim;
    const float* r3 = base + (r + 3) * dim;
    __m512 a0 = _mm512_setzero_ps();
    __m512 a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps();
    __m512 a3 = _mm512_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      const __m512 vq = _mm512_loadu_ps(q + i);
      a0 = _mm512_fmadd_ps(_mm512_loadu_ps(r0 + i), vq, a0);
      a1 = _mm512_fmadd_ps(_mm512_loadu_ps(r1 + i), vq, a1);
      a2 = _mm512_fmadd_ps(_mm512_loadu_ps(r2 + i), vq, a2);
      a3 = _mm512_fmadd_ps(_mm512_loadu_ps(r3 + i), vq, a3);
    }
    if (i < dim) {
      const __mmask16 m = TailMask(dim - i);
      const __m512 vq = _mm512_maskz_loadu_ps(m, q + i);
      a0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r0 + i), vq, a0);
      a1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r1 + i), vq, a1);
      a2 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r2 + i), vq, a2);
      a3 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r3 + i), vq, a3);
    }
    out[r + 0] = _mm512_reduce_add_ps(a0);
    out[r + 1] = _mm512_reduce_add_ps(a1);
    out[r + 2] = _mm512_reduce_add_ps(a2);
    out[r + 3] = _mm512_reduce_add_ps(a3);
  }
  for (; r < count; ++r) out[r] = DotAvx512(q, base + r * dim, dim);
}

/// Widen 16 int8 codes to a 16-lane fp32 vector. The 128-bit load is
/// SSE2 and the sign-extending VPMOVSXBD to zmm is AVX512F, so this TU's
/// -mavx512f-only flag set suffices. Byte-granular masked loads would
/// need AVX512BW, which is deliberately not enabled here — int8 tails
/// fall back to scalar instead of masking.
inline __m512 LoadI8AsPs512(const int8_t* p) {
  const __m128i bytes =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(bytes));
}

float DotI8Avx512(const float* q, const int8_t* c, size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(q + i), LoadI8AsPs512(c + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(q + i + 16),
                           LoadI8AsPs512(c + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(q + i), LoadI8AsPs512(c + i),
                           acc0);
  }
  float acc = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += q[i] * static_cast<float>(c[i]);
  return acc;
}

void DotBatchI8Avx512(const float* q, const int8_t* base, size_t count,
                      size_t dim, float* out) {
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const int8_t* r0 = base + (r + 0) * dim;
    const int8_t* r1 = base + (r + 1) * dim;
    const int8_t* r2 = base + (r + 2) * dim;
    const int8_t* r3 = base + (r + 3) * dim;
    __m512 a0 = _mm512_setzero_ps();
    __m512 a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps();
    __m512 a3 = _mm512_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      const __m512 vq = _mm512_loadu_ps(q + i);
      a0 = _mm512_fmadd_ps(LoadI8AsPs512(r0 + i), vq, a0);
      a1 = _mm512_fmadd_ps(LoadI8AsPs512(r1 + i), vq, a1);
      a2 = _mm512_fmadd_ps(LoadI8AsPs512(r2 + i), vq, a2);
      a3 = _mm512_fmadd_ps(LoadI8AsPs512(r3 + i), vq, a3);
    }
    float s0 = _mm512_reduce_add_ps(a0);
    float s1 = _mm512_reduce_add_ps(a1);
    float s2 = _mm512_reduce_add_ps(a2);
    float s3 = _mm512_reduce_add_ps(a3);
    for (; i < dim; ++i) {
      const float vq = q[i];
      s0 += static_cast<float>(r0[i]) * vq;
      s1 += static_cast<float>(r1[i]) * vq;
      s2 += static_cast<float>(r2[i]) * vq;
      s3 += static_cast<float>(r3[i]) * vq;
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = DotI8Avx512(q, base + r * dim, dim);
}

}  // namespace

const KernelTable* Avx512Table() {
  static const KernelTable table = {
      &DotAvx512, &SquaredL2Avx512, &AxpyAvx512, &DotBatchAvx512,
      &DotI8Avx512, &DotBatchI8Avx512,
  };
  return &table;
}

#else  // !__AVX512F__

const KernelTable* Avx512Table() { return nullptr; }

#endif

}  // namespace sccf::simd::internal
