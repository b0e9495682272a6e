// AVX2+FMA variant of the kernel table. This translation unit is the only
// one compiled with -mavx2 -mfma -mpopcnt (see the simd layer in
// CMakeLists.txt);
// nothing here may be called unless the dispatcher verified CPUID support.
// When the compiler cannot target AVX2 the table degrades to nullptr and
// the dispatcher never selects this variant.

#include "simd/kernel_table.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__POPCNT__)
#include <immintrin.h>

#include <array>
#include <cstdint>
#endif

namespace sccf::simd::internal {

#if defined(__AVX2__) && defined(__FMA__) && defined(__POPCNT__)

namespace {

inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float acc = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float SquaredL2Avx2(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float out = HorizontalSum(acc);
  for (; i < n; ++i) {
    const float t = a[i] - b[i];
    out += t * t;
  }
  return out;
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void DotBatchAvx2(const float* q, const float* base, size_t count,
                  size_t dim, float* out) {
  // Four rows per block: each query load feeds four FMAs, which roughly
  // quarters the load traffic of row-at-a-time scanning.
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* r0 = base + (r + 0) * dim;
    const float* r1 = base + (r + 1) * dim;
    const float* r2 = base + (r + 2) * dim;
    const float* r3 = base + (r + 3) * dim;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      const __m256 vq = _mm256_loadu_ps(q + i);
      a0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i), vq, a0);
      a1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i), vq, a1);
      a2 = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i), vq, a2);
      a3 = _mm256_fmadd_ps(_mm256_loadu_ps(r3 + i), vq, a3);
    }
    float s0 = HorizontalSum(a0);
    float s1 = HorizontalSum(a1);
    float s2 = HorizontalSum(a2);
    float s3 = HorizontalSum(a3);
    for (; i < dim; ++i) {
      const float vq = q[i];
      s0 += r0[i] * vq;
      s1 += r1[i] * vq;
      s2 += r2[i] * vq;
      s3 += r3[i] * vq;
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = DotAvx2(q, base + r * dim, dim);
}

/// Widen 8 int8 codes to an fp32 lane vector: 64-bit load, sign-extend to
/// epi32, convert. One load feeds one FMA against the fp32 query.
inline __m256 LoadI8AsPs(const int8_t* p) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
}

float DotI8Avx2(const float* q, const int8_t* c, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), LoadI8AsPs(c + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i + 8), LoadI8AsPs(c + i + 8),
                           acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), LoadI8AsPs(c + i), acc0);
  }
  float acc = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += q[i] * static_cast<float>(c[i]);
  return acc;
}

void DotBatchI8Avx2(const float* q, const int8_t* base, size_t count,
                    size_t dim, float* out) {
  // Same four-rows-per-block shape as DotBatchAvx2: each query load feeds
  // four widened FMAs.
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const int8_t* r0 = base + (r + 0) * dim;
    const int8_t* r1 = base + (r + 1) * dim;
    const int8_t* r2 = base + (r + 2) * dim;
    const int8_t* r3 = base + (r + 3) * dim;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      const __m256 vq = _mm256_loadu_ps(q + i);
      a0 = _mm256_fmadd_ps(LoadI8AsPs(r0 + i), vq, a0);
      a1 = _mm256_fmadd_ps(LoadI8AsPs(r1 + i), vq, a1);
      a2 = _mm256_fmadd_ps(LoadI8AsPs(r2 + i), vq, a2);
      a3 = _mm256_fmadd_ps(LoadI8AsPs(r3 + i), vq, a3);
    }
    float s0 = HorizontalSum(a0);
    float s1 = HorizontalSum(a1);
    float s2 = HorizontalSum(a2);
    float s3 = HorizontalSum(a3);
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
  for (; r < count; ++r) out[r] = DotI8Avx2(q, base + r * dim, dim);
}

/// kCompress4[mask]: permutevar8x32 indices that move the 8-byte words
/// whose bit is set in the 4-bit mask to the front, in order.
constexpr std::array<std::array<int32_t, 8>, 16> MakeCompress4() {
  std::array<std::array<int32_t, 8>, 16> table{};
  for (int mask = 0; mask < 16; ++mask) {
    int w = 0;
    for (int word = 0; word < 4; ++word) {
      if ((mask >> word) & 1) {
        table[mask][2 * w] = 2 * word;
        table[mask][2 * w + 1] = 2 * word + 1;
        ++w;
      }
    }
  }
  return table;
}
alignas(32) constexpr std::array<std::array<int32_t, 8>, 16> kCompress4 =
    MakeCompress4();

inline __m256i CompressWords(__m256i words, int mask) {
  return _mm256_permutevar8x32_epi32(
      words, _mm256_load_si256(
                 reinterpret_cast<const __m256i*>(kCompress4[mask].data())));
}

/// Eight scores per step: compare against the threshold, drop the
/// excluded id, interleave ids and scores into two vectors of four
/// {id, score} words, and move each vector's passing words to its front
/// with a table-driven permute. Each vector is stored whole; the next
/// store starts right after its passing words and overwrites the rest.
/// Both stores of a step stay inside out[0, n): the first starts at most
/// at the step's first row and the second at most four rows later. Rows
/// past the last whole step go through the scalar loop.
template <bool kDense>
size_t FilterAvx2(const int* ids, int first_id, const float* scores,
                  size_t n, float threshold, int exclude_id, Neighbor* out) {
  const __m256 t = _mm256_set1_ps(threshold);
  const __m256i exclude = _mm256_set1_epi32(exclude_id);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  size_t m = 0;
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 s = _mm256_loadu_ps(scores + j);
    int pass = _mm256_movemask_ps(_mm256_cmp_ps(s, t, _CMP_GE_OQ));
    if (pass == 0) continue;
    const __m256i id =
        kDense ? _mm256_add_epi32(
                     _mm256_set1_epi32(first_id + static_cast<int>(j)), lane)
               : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + j));
    pass &= ~_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(id, exclude)));
    const __m256i bits = _mm256_castps_si256(s);
    const __m256i a = _mm256_unpacklo_epi32(id, bits);  // rows 0 1 | 4 5
    const __m256i b = _mm256_unpackhi_epi32(id, bits);  // rows 2 3 | 6 7
    const int pass_lo = pass & 15;
    const int pass_hi = pass >> 4;
    const size_t n_lo = static_cast<size_t>(_mm_popcnt_u32(pass_lo));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + m),
        CompressWords(_mm256_permute2x128_si256(a, b, 0x20), pass_lo));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + m + n_lo),
        CompressWords(_mm256_permute2x128_si256(a, b, 0x31), pass_hi));
    m += n_lo + static_cast<size_t>(_mm_popcnt_u32(pass_hi));
  }
  for (; j < n; ++j) {
    const int id = kDense ? first_id + static_cast<int>(j) : ids[j];
    out[m] = {id, scores[j]};
    m += static_cast<size_t>((scores[j] >= threshold) & (id != exclude_id));
  }
  return m;
}

size_t FilterAtOrAboveAvx2(const int* ids, const float* scores, size_t n,
                           float threshold, int exclude_id, Neighbor* out) {
  return FilterAvx2<false>(ids, 0, scores, n, threshold, exclude_id, out);
}

size_t FilterAtOrAboveDenseAvx2(int first_id, const float* scores, size_t n,
                                float threshold, Neighbor* out) {
  return FilterAvx2<true>(nullptr, first_id, scores, n, threshold,
                          /*exclude_id=*/-1, out);
}

}  // namespace

const KernelTable* Avx2Table() {
  static const KernelTable table = {
      &DotAvx2, &SquaredL2Avx2, &AxpyAvx2, &DotBatchAvx2,
      &DotI8Avx2, &DotBatchI8Avx2, &FilterAtOrAboveAvx2,
      &FilterAtOrAboveDenseAvx2,
  };
  return &table;
}

#else  // !(__AVX2__ && __FMA__ && __POPCNT__)

const KernelTable* Avx2Table() { return nullptr; }

#endif

}  // namespace sccf::simd::internal
