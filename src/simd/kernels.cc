#include "simd/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "simd/kernel_table.h"
#include "util/logging.h"

namespace sccf::simd {

namespace internal {
namespace {

float DotScalar(const float* a, const float* b, size_t n) {
  // Four independent accumulators: enough ILP that the scalar reference is
  // a fair baseline, and bit-identical to the pre-SIMD tensor_ops::Dot.
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  float acc = acc0 + acc1 + acc2 + acc3;
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float SquaredL2Scalar(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float t = a[i] - b[i];
    acc += t * t;
  }
  return acc;
}

void AxpyScalar(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void DotBatchScalar(const float* q, const float* base, size_t count,
                    size_t dim, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotScalar(q, base + r * dim, dim);
  }
}

float DotI8Scalar(const float* q, const int8_t* c, size_t n) {
  // Same four-accumulator shape as DotScalar so the int8 scalar baseline
  // is a fair reference for the widened-FMA variants.
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += q[i] * static_cast<float>(c[i]);
    acc1 += q[i + 1] * static_cast<float>(c[i + 1]);
    acc2 += q[i + 2] * static_cast<float>(c[i + 2]);
    acc3 += q[i + 3] * static_cast<float>(c[i + 3]);
  }
  float acc = acc0 + acc1 + acc2 + acc3;
  for (; i < n; ++i) acc += q[i] * static_cast<float>(c[i]);
  return acc;
}

void DotBatchI8Scalar(const float* q, const int8_t* base, size_t count,
                      size_t dim, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotI8Scalar(q, base + r * dim, dim);
  }
}

// Every row is written to the next free entry and the entry is claimed
// only when the row passes, so the loop has no data-dependent branch. A
// group of 16 rows all below the threshold (most of them, once a top-k
// threshold has risen) is skipped after counting its passes.
template <bool kDense>
size_t FilterScalar(const int* ids, int first_id, const float* scores,
                    size_t n, float threshold, int exclude_id,
                    Neighbor* out) {
  constexpr size_t kGroup = 16;
  size_t m = 0;
  for (size_t g = 0; g < n; g += kGroup) {
    const size_t glen = std::min(kGroup, n - g);
    if (glen == kGroup) {
      int passed = 0;
      for (size_t j = g; j < g + kGroup; ++j) passed += scores[j] >= threshold;
      if (passed == 0) continue;
    }
    for (size_t j = g; j < g + glen; ++j) {
      const int id = kDense ? first_id + static_cast<int>(j) : ids[j];
      out[m] = {id, scores[j]};
      m += static_cast<size_t>((scores[j] >= threshold) & (id != exclude_id));
    }
  }
  return m;
}

size_t FilterAtOrAboveScalar(const int* ids, const float* scores, size_t n,
                             float threshold, int exclude_id, Neighbor* out) {
  return FilterScalar<false>(ids, 0, scores, n, threshold, exclude_id, out);
}

size_t FilterAtOrAboveDenseScalar(int first_id, const float* scores,
                                  size_t n, float threshold, Neighbor* out) {
  return FilterScalar<true>(nullptr, first_id, scores, n, threshold,
                            /*exclude_id=*/-1, out);
}

}  // namespace

const KernelTable* ScalarTable() {
  static const KernelTable table = {
      &DotScalar, &SquaredL2Scalar, &AxpyScalar, &DotBatchScalar,
      &DotI8Scalar, &DotBatchI8Scalar, &FilterAtOrAboveScalar,
      &FilterAtOrAboveDenseScalar,
  };
  return &table;
}

}  // namespace internal

namespace {

using internal::KernelTable;

bool CpuSupports(Variant v) {
#if defined(__x86_64__) || defined(__i386__)
  switch (v) {
    case Variant::kScalar:
      return true;
    case Variant::kAvx2:
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma") &&
             __builtin_cpu_supports("popcnt");
    case Variant::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("popcnt");
  }
  return false;
#else
  return v == Variant::kScalar;
#endif
}

const KernelTable* TableFor(Variant v) {
  switch (v) {
    case Variant::kScalar:
      return internal::ScalarTable();
    case Variant::kAvx2:
      return internal::Avx2Table();
    case Variant::kAvx512:
      return internal::Avx512Table();
  }
  return nullptr;
}

Variant BestSupported() {
  if (VariantSupported(Variant::kAvx512)) return Variant::kAvx512;
  if (VariantSupported(Variant::kAvx2)) return Variant::kAvx2;
  return Variant::kScalar;
}

std::mutex& DispatchMutex() {
  static std::mutex mu;
  return mu;
}

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_variant{static_cast<int>(Variant::kScalar)};

void Activate(Variant v) {
  // Publish the table before the variant name so a concurrent reader never
  // sees a variant whose table is not yet visible.
  g_table.store(TableFor(v), std::memory_order_release);
  g_variant.store(static_cast<int>(v), std::memory_order_release);
}

bool ParseVariant(const char* s, Variant* out) {
  if (std::strcmp(s, "scalar") == 0) {
    *out = Variant::kScalar;
  } else if (std::strcmp(s, "avx2") == 0) {
    *out = Variant::kAvx2;
  } else if (std::strcmp(s, "avx512") == 0) {
    *out = Variant::kAvx512;
  } else {
    return false;
  }
  return true;
}

const KernelTable& ActiveTable() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    ResetVariantFromEnv();
    t = g_table.load(std::memory_order_acquire);
  }
  return *t;
}

}  // namespace

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kScalar:
      return "scalar";
    case Variant::kAvx2:
      return "avx2";
    case Variant::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool VariantSupported(Variant v) {
  return TableFor(v) != nullptr && CpuSupports(v);
}

Variant ActiveVariant() {
  if (g_table.load(std::memory_order_acquire) == nullptr) {
    ResetVariantFromEnv();
  }
  return static_cast<Variant>(g_variant.load(std::memory_order_acquire));
}

Status ForceVariant(Variant v) {
  if (!VariantSupported(v)) {
    return Status::InvalidArgument(
        std::string("SIMD variant not supported on this build/CPU: ") +
        VariantName(v));
  }
  std::lock_guard<std::mutex> lock(DispatchMutex());
  Activate(v);
  return Status::OK();
}

void ResetVariantFromEnv() {
  std::lock_guard<std::mutex> lock(DispatchMutex());
  Variant v = BestSupported();
  const char* env = std::getenv("SCCF_SIMD");
  if (env != nullptr && env[0] != '\0') {
    Variant requested;
    if (!ParseVariant(env, &requested)) {
      SCCF_LOG_WARNING << "SCCF_SIMD=" << env
                       << " is not one of scalar|avx2|avx512; using "
                       << VariantName(v);
    } else if (!VariantSupported(requested)) {
      SCCF_LOG_WARNING << "SCCF_SIMD=" << env
                       << " not supported on this build/CPU; using "
                       << VariantName(v);
    } else {
      v = requested;
    }
  }
  Activate(v);
}

float Dot(const float* a, const float* b, size_t n) {
  return ActiveTable().dot(a, b, n);
}

float SquaredL2(const float* a, const float* b, size_t n) {
  return ActiveTable().squared_l2(a, b, n);
}

float Norm(const float* a, size_t n) {
  return std::sqrt(std::max(0.0f, Dot(a, a, n)));
}

float Cosine(const float* a, const float* b, size_t n) {
  const float na = Norm(a, n);
  const float nb = Norm(b, n);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return Dot(a, b, n) / (na * nb);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  ActiveTable().axpy(alpha, x, y, n);
}

void NormalizeCopy(const float* in, float* out, size_t n) {
  const float norm = Norm(in, n);
  const float inv = norm > 0.0f ? 1.0f / norm : 0.0f;
  for (size_t i = 0; i < n; ++i) out[i] = in[i] * inv;
}

void NormalizeInPlace(float* v, size_t n) {
  const float norm = Norm(v, n);
  if (norm > 0.0f) {
    const float inv = 1.0f / norm;
    for (size_t i = 0; i < n; ++i) v[i] *= inv;
  }
}

void DotBatch(const float* q, const float* base, size_t count, size_t dim,
              float* out) {
  ActiveTable().dot_batch(q, base, count, dim, out);
}

float DotI8(const float* q, const int8_t* c, size_t n) {
  return ActiveTable().dot_i8(q, c, n);
}

void DotBatchI8(const float* q, const int8_t* base, size_t count,
                size_t dim, float* out) {
  ActiveTable().dot_batch_i8(q, base, count, dim, out);
}

size_t FilterAtOrAbove(const int* ids, const float* scores, size_t n,
                       float threshold, int exclude_id, Neighbor* out) {
  return ActiveTable().filter_at_or_above(ids, scores, n, threshold,
                                          exclude_id, out);
}

size_t FilterAtOrAboveDense(int first_id, const float* scores, size_t n,
                            float threshold, Neighbor* out) {
  return ActiveTable().filter_at_or_above_dense(first_id, scores, n,
                                                threshold, out);
}

float CosineI8(const float* q, const int8_t* c, size_t n, float scale,
               float offset, float qsum) {
  const float nq = Norm(q, n);
  if (nq == 0.0f) return 0.0f;
  // ||decoded||^2 = scale^2*sum(c^2) + 2*scale*offset*sum(c) + offset^2*n.
  // sum(c) / sum(c^2) stay scalar: int8 codes make this loop cheap and it
  // keeps the norm bit-identical across variants (only the raw dot below
  // goes through the dispatch table).
  float sum_c = 0.0f, sum_c2 = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float v = static_cast<float>(c[i]);
    sum_c += v;
    sum_c2 += v * v;
  }
  const float norm_sq = scale * scale * sum_c2 +
                        2.0f * scale * offset * sum_c +
                        offset * offset * static_cast<float>(n);
  const float nr = std::sqrt(std::max(0.0f, norm_sq));
  if (nr == 0.0f) return 0.0f;
  const float dot = scale * ActiveTable().dot_i8(q, c, n) + offset * qsum;
  return dot / (nq * nr);
}

}  // namespace sccf::simd
