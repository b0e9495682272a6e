// Parity and dispatch tests for the runtime-dispatched SIMD kernels
// (src/simd). Every variant the build+CPU supports must match the scalar
// reference within 1e-5 across odd/even/remainder lengths (int8 kernels:
// within 2e-7 of the products' L1 mass — see ExpectWithinI8), the
// zero-norm cosine guard must hold for every variant, and the SCCF_SIMD
// override must actually steer dispatch.

#include "simd/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "util/random.h"

namespace sccf::simd {
namespace {

std::vector<Variant> SupportedVariants() {
  std::vector<Variant> out;
  for (Variant v : {Variant::kScalar, Variant::kAvx2, Variant::kAvx512}) {
    if (VariantSupported(v)) out.push_back(v);
  }
  return out;
}

std::vector<float> RandomVector(Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = 2.0f * rng.UniformFloat() - 1.0f;
  return v;
}

// |got - want| <= 1e-5, relaxed to relative 1e-5 for magnitudes above 1
// (a length-257 dot product legitimately accumulates ~1e-5 of
// reassociation noise in float32).
void ExpectWithin(float got, float want, const char* what, size_t n,
                  Variant v) {
  const float tol = 1e-5f * std::max(1.0f, std::fabs(want));
  EXPECT_NEAR(got, want, tol) << what << " n=" << n << " variant="
                              << VariantName(v);
}

// Restores the pre-test dispatch state however a test mutates it.
class SimdKernelsTest : public testing::Test {
 protected:
  void SetUp() override { before_ = ActiveVariant(); }
  void TearDown() override {
    unsetenv("SCCF_SIMD");
    ASSERT_TRUE(ForceVariant(before_).ok());
  }
  Variant before_;
};

TEST_F(SimdKernelsTest, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(VariantSupported(Variant::kScalar));
  EXPECT_TRUE(ForceVariant(Variant::kScalar).ok());
  EXPECT_EQ(ActiveVariant(), Variant::kScalar);
}

// Lengths 1..257 cover: sub-width vectors, every remainder class of the
// 8/16/32-wide loops, and the 256->257 boundary that exercises both the
// unrolled body and a 1-element tail.
TEST_F(SimdKernelsTest, AllVariantsMatchScalarReference) {
  Rng rng(2024);
  for (size_t n = 1; n <= 257; ++n) {
    const std::vector<float> a = RandomVector(rng, n);
    const std::vector<float> b = RandomVector(rng, n);

    ASSERT_TRUE(ForceVariant(Variant::kScalar).ok());
    const float dot_ref = Dot(a.data(), b.data(), n);
    const float l2_ref = SquaredL2(a.data(), b.data(), n);
    const float cos_ref = Cosine(a.data(), b.data(), n);
    const float norm_ref = Norm(a.data(), n);
    std::vector<float> axpy_ref = b;
    Axpy(0.75f, a.data(), axpy_ref.data(), n);

    for (Variant v : SupportedVariants()) {
      if (v == Variant::kScalar) continue;
      ASSERT_TRUE(ForceVariant(v).ok());
      ExpectWithin(Dot(a.data(), b.data(), n), dot_ref, "Dot", n, v);
      ExpectWithin(SquaredL2(a.data(), b.data(), n), l2_ref, "SquaredL2",
                   n, v);
      ExpectWithin(Cosine(a.data(), b.data(), n), cos_ref, "Cosine", n, v);
      ExpectWithin(Norm(a.data(), n), norm_ref, "Norm", n, v);
      std::vector<float> y = b;
      Axpy(0.75f, a.data(), y.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(y[i], axpy_ref[i], 1e-5f)
            << "Axpy n=" << n << " i=" << i << " " << VariantName(v);
      }
    }
  }
}

TEST_F(SimdKernelsTest, DotBatchMatchesPerRowDot) {
  Rng rng(7);
  // 37 rows: exercises the 4-row blocking plus a 1-row tail.
  const size_t count = 37;
  for (size_t dim : {1u, 3u, 16u, 64u, 100u, 128u, 257u}) {
    const std::vector<float> q = RandomVector(rng, dim);
    const std::vector<float> base = RandomVector(rng, count * dim);
    for (Variant v : SupportedVariants()) {
      ASSERT_TRUE(ForceVariant(v).ok());
      std::vector<float> out(count, 0.0f);
      DotBatch(q.data(), base.data(), count, dim, out.data());
      for (size_t r = 0; r < count; ++r) {
        const float want = Dot(q.data(), base.data() + r * dim, dim);
        ExpectWithin(out[r], want, "DotBatch", dim, v);
      }
    }
  }
}

TEST_F(SimdKernelsTest, ScatterAddConstantMatchesScalarLoop) {
  Rng rng(13);
  const size_t size = 500;
  for (size_t n : {1u, 15u, 16u, 17u, 48u, 100u}) {
    // Unique indices (the documented precondition): a shuffled id range.
    std::vector<int> ids(size);
    for (size_t i = 0; i < size; ++i) ids[i] = static_cast<int>(i);
    rng.Shuffle(ids);
    ids.resize(n);

    std::vector<float> want(size, 0.5f);
    for (int id : ids) want[id] += 1.25f;

    for (Variant v : SupportedVariants()) {
      ASSERT_TRUE(ForceVariant(v).ok());
      std::vector<float> dst(size, 0.5f);
      ScatterAddConstant(dst.data(), ids.data(), n, 1.25f);
      for (size_t i = 0; i < size; ++i) {
        ASSERT_EQ(dst[i], want[i])
            << "ScatterAdd n=" << n << " i=" << i << " " << VariantName(v);
      }
    }
  }
}

// The zero-norm policy has exactly one definition (the satellite fix):
// every variant must agree that zero vectors produce 0 cosine and that
// normalization leaves/writes zeros instead of NaN.
TEST_F(SimdKernelsTest, ZeroNormGuardIsCentralized) {
  const std::vector<float> zeros(33, 0.0f);
  std::vector<float> x(33, 0.0f);
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.1f * (i + 1);

  for (Variant v : SupportedVariants()) {
    ASSERT_TRUE(ForceVariant(v).ok());
    EXPECT_EQ(Cosine(zeros.data(), x.data(), x.size()), 0.0f);
    EXPECT_EQ(Cosine(x.data(), zeros.data(), x.size()), 0.0f);
    EXPECT_EQ(Cosine(zeros.data(), zeros.data(), x.size()), 0.0f);

    std::vector<float> out(x.size(), 42.0f);
    NormalizeCopy(zeros.data(), out.data(), x.size());
    for (float o : out) EXPECT_EQ(o, 0.0f) << VariantName(v);

    std::vector<float> z = zeros;
    NormalizeInPlace(z.data(), z.size());
    for (float o : z) EXPECT_EQ(o, 0.0f) << VariantName(v);

    std::vector<float> unit = x;
    NormalizeInPlace(unit.data(), unit.size());
    EXPECT_NEAR(Norm(unit.data(), unit.size()), 1.0f, 1e-5f)
        << VariantName(v);
  }
}

std::vector<int8_t> RandomCodes(Rng& rng, size_t n) {
  std::vector<int8_t> c(n);
  for (auto& x : c) {
    x = static_cast<int8_t>(
        static_cast<int>(rng.UniformFloat() * 254.0f) - 127);
  }
  return c;
}

// Int8 dots accumulate terms up to 127x larger than the unit-range f32
// parity vectors, and random-code sums cancel heavily, so a tolerance
// relative to the (small) result would demand more precision than fp32
// summation has. Budget reassociation noise against the L1 mass of the
// products instead: measured cross-variant deviation is ~3e-8 * l1, so
// 2e-7 * l1 keeps ~10x margin while staying far below one quantization
// step of any realistic row.
void ExpectWithinI8(float got, float want, const float* q, const int8_t* c,
                    size_t n, const char* what, Variant v) {
  double l1 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    l1 += std::fabs(static_cast<double>(q[i]) * static_cast<double>(c[i]));
  }
  const float tol = std::max(1e-5f, static_cast<float>(2e-7 * l1));
  EXPECT_NEAR(got, want, tol) << what << " n=" << n << " variant="
                              << VariantName(v);
}

// Same length sweep as the fp32 parity test: 1..257 covers sub-width
// vectors, every remainder class of the 8/16/32-wide int8 loops, and the
// 256->257 boundary.
TEST_F(SimdKernelsTest, Int8VariantsMatchScalarReference) {
  Rng rng(4048);
  for (size_t n = 1; n <= 257; ++n) {
    const std::vector<float> q = RandomVector(rng, n);
    const std::vector<int8_t> c = RandomCodes(rng, n);

    ASSERT_TRUE(ForceVariant(Variant::kScalar).ok());
    const float ref = DotI8(q.data(), c.data(), n);

    for (Variant v : SupportedVariants()) {
      if (v == Variant::kScalar) continue;
      ASSERT_TRUE(ForceVariant(v).ok());
      ExpectWithinI8(DotI8(q.data(), c.data(), n), ref, q.data(), c.data(),
                     n, "DotI8", v);
    }
  }
}

// Extreme codes (every element +/-127): the widening path must not wrap
// or saturate anywhere up to the 257-length boundary.
TEST_F(SimdKernelsTest, Int8SaturatedCodesMatchScalar) {
  Rng rng(4049);
  for (size_t n : {1u, 7u, 8u, 31u, 32u, 33u, 127u, 256u, 257u}) {
    const std::vector<float> q = RandomVector(rng, n);
    std::vector<int8_t> c(n);
    for (size_t i = 0; i < n; ++i) c[i] = (i % 2 == 0) ? 127 : -127;

    ASSERT_TRUE(ForceVariant(Variant::kScalar).ok());
    const float ref = DotI8(q.data(), c.data(), n);
    // The scalar reference itself must agree with a double-precision sum.
    double want = 0.0;
    for (size_t i = 0; i < n; ++i) {
      want += static_cast<double>(q[i]) * static_cast<double>(c[i]);
    }
    ExpectWithinI8(ref, static_cast<float>(want), q.data(), c.data(), n,
                   "DotI8-ref", Variant::kScalar);

    for (Variant v : SupportedVariants()) {
      if (v == Variant::kScalar) continue;
      ASSERT_TRUE(ForceVariant(v).ok());
      ExpectWithinI8(DotI8(q.data(), c.data(), n), ref, q.data(), c.data(),
                     n, "DotI8-sat", v);
    }
  }
}

TEST_F(SimdKernelsTest, DotBatchI8MatchesPerRowDot) {
  Rng rng(4050);
  const size_t count = 37;  // 4-row blocking plus a 1-row tail
  for (size_t dim : {1u, 3u, 16u, 64u, 100u, 128u, 257u}) {
    const std::vector<float> q = RandomVector(rng, dim);
    const std::vector<int8_t> base = RandomCodes(rng, count * dim);
    for (Variant v : SupportedVariants()) {
      ASSERT_TRUE(ForceVariant(v).ok());
      std::vector<float> out(count, 0.0f);
      DotBatchI8(q.data(), base.data(), count, dim, out.data());
      for (size_t r = 0; r < count; ++r) {
        const float want = DotI8(q.data(), base.data() + r * dim, dim);
        ExpectWithinI8(out[r], want, q.data(), base.data() + r * dim, dim,
                       "DotBatchI8", v);
      }
    }
  }
}

// CosineI8's zero-norm policy matches the fp32 one: a zero query or a
// zero-norm row (all-zero codes with scale 0 — what Sq8Encode emits for
// a constant-zero row) scores exactly 0 on every variant. A per-row
// scale of 0 with nonzero offset (constant row) must still score via the
// offset term.
TEST_F(SimdKernelsTest, CosineI8ZeroNormAndZeroScaleRows) {
  const size_t n = 33;
  std::vector<float> q(n);
  for (size_t i = 0; i < n; ++i) q[i] = 0.1f * (i + 1);
  const std::vector<float> zeros(n, 0.0f);
  const std::vector<int8_t> zero_codes(n, 0);
  float qsum = 0.0f;
  for (float x : q) qsum += x;

  for (Variant v : SupportedVariants()) {
    ASSERT_TRUE(ForceVariant(v).ok());
    // Zero-norm row: scale 0, offset 0.
    EXPECT_EQ(CosineI8(q.data(), zero_codes.data(), n, 0.0f, 0.0f, qsum),
              0.0f)
        << VariantName(v);
    // Zero query against any row.
    EXPECT_EQ(CosineI8(zeros.data(), zero_codes.data(), n, 0.5f, 0.25f,
                       0.0f),
              0.0f)
        << VariantName(v);
    // Constant row c=0.7: scale 0, offset 0.7. cosine(q, const-vector)
    // = qsum * 0.7 / (||q|| * 0.7 * sqrt(n)).
    const float got =
        CosineI8(q.data(), zero_codes.data(), n, 0.0f, 0.7f, qsum);
    const float want =
        qsum * 0.7f /
        (Norm(q.data(), n) * 0.7f * std::sqrt(static_cast<float>(n)));
    EXPECT_NEAR(got, want, 1e-5f) << VariantName(v);
  }
}

TEST_F(SimdKernelsTest, EnvOverrideForcesEachSupportedVariant) {
  for (Variant v : SupportedVariants()) {
    ASSERT_EQ(setenv("SCCF_SIMD", VariantName(v), 1), 0);
    ResetVariantFromEnv();
    EXPECT_EQ(ActiveVariant(), v) << "SCCF_SIMD=" << VariantName(v);
  }
}

TEST_F(SimdKernelsTest, EnvOverrideFallsBackOnBadValues) {
  // Auto-dispatch baseline: no override set.
  unsetenv("SCCF_SIMD");
  ResetVariantFromEnv();
  const Variant best = ActiveVariant();

  ASSERT_EQ(setenv("SCCF_SIMD", "sse9000", 1), 0);
  ResetVariantFromEnv();
  EXPECT_EQ(ActiveVariant(), best) << "unknown value must fall back";

  ASSERT_EQ(setenv("SCCF_SIMD", "", 1), 0);
  ResetVariantFromEnv();
  EXPECT_EQ(ActiveVariant(), best) << "empty value must fall back";
}

TEST_F(SimdKernelsTest, ForceVariantRejectsUnsupported) {
  for (Variant v : {Variant::kAvx2, Variant::kAvx512}) {
    if (VariantSupported(v)) continue;
    const Status s = ForceVariant(v);
    EXPECT_FALSE(s.ok()) << VariantName(v);
    EXPECT_EQ(ActiveVariant(), before_) << "failed force must not switch";
  }
}

}  // namespace
}  // namespace sccf::simd
