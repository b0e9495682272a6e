// Codec properties of the SQ8 scalar quantizer (src/quant/sq8.h):
// deterministic encode, bounded reconstruction error, exact handling of
// the degenerate rows (constant, zero, single-element), saturation at
// the +/-127 code bounds, and RowStore's append/set/remove-swap
// bookkeeping in both storage modes, including verbatim row moves, its
// (de)serialization, and the dim+8-bytes-per-row accounting the memory
// stats build on.

#include "quant/sq8.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "quant/row_store.h"
#include "simd/kernels.h"
#include "util/coding.h"
#include "util/random.h"

namespace sccf::quant {
namespace {

std::vector<float> RandomRow(Rng& rng, size_t n, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = scale * (2.0f * rng.UniformFloat() - 1.0f);
  return v;
}

TEST(StorageTest, ParseAndName) {
  Storage s = Storage::kSq8;
  EXPECT_TRUE(ParseStorage("fp32", &s));
  EXPECT_EQ(s, Storage::kFp32);
  EXPECT_TRUE(ParseStorage("sq8", &s));
  EXPECT_EQ(s, Storage::kSq8);
  EXPECT_TRUE(ParseStorage("SQ8", &s));  // case-insensitive
  EXPECT_EQ(s, Storage::kSq8);
  EXPECT_FALSE(ParseStorage("int8", &s));
  EXPECT_FALSE(ParseStorage("", &s));
  EXPECT_STREQ(StorageName(Storage::kFp32), "fp32");
  EXPECT_STREQ(StorageName(Storage::kSq8), "sq8");
}

TEST(Sq8CodecTest, RoundTripErrorIsBoundedByHalfStep) {
  Rng rng(20210419);
  for (size_t n : {1u, 2u, 15u, 16u, 17u, 64u, 257u}) {
    for (float mag : {0.01f, 1.0f, 100.0f}) {
      const std::vector<float> row = RandomRow(rng, n, mag);
      std::vector<int8_t> codes(n);
      const Sq8Params p = Sq8Encode(row.data(), n, codes.data());
      std::vector<float> decoded(n);
      Sq8Decode(codes.data(), n, p, decoded.data());
      // Max quantization error is half a step; scale IS the step size.
      const float bound = 0.5f * p.scale + 1e-6f * mag;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(decoded[i], row[i], bound) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Sq8CodecTest, EncodeIsDeterministic) {
  Rng rng(7);
  const size_t n = 96;
  const std::vector<float> row = RandomRow(rng, n);
  std::vector<int8_t> a(n), b(n);
  const Sq8Params pa = Sq8Encode(row.data(), n, a.data());
  const Sq8Params pb = Sq8Encode(row.data(), n, b.data());
  EXPECT_EQ(pa.scale, pb.scale);
  EXPECT_EQ(pa.offset, pb.offset);
  EXPECT_EQ(a, b);
}

TEST(Sq8CodecTest, ExtremesSaturateExactlyAt127) {
  // min and max of the row must map exactly to -127 / +127 (no overflow
  // past the symmetric bound, no wasted range).
  std::vector<float> row = {-3.0f, -1.0f, 0.0f, 2.0f, 5.0f};
  std::vector<int8_t> codes(row.size());
  const Sq8Params p = Sq8Encode(row.data(), row.size(), codes.data());
  EXPECT_EQ(codes.front(), -127);  // row min
  EXPECT_EQ(codes.back(), 127);    // row max
  for (int8_t c : codes) {
    EXPECT_GE(c, -127);
    EXPECT_LE(c, 127);
  }
  // Decode maps the extremes back exactly: offset +/- 127*scale = hi/lo.
  std::vector<float> decoded(row.size());
  Sq8Decode(codes.data(), row.size(), p, decoded.data());
  EXPECT_NEAR(decoded.front(), -3.0f, 1e-5f);
  EXPECT_NEAR(decoded.back(), 5.0f, 1e-5f);
}

TEST(Sq8CodecTest, ConstantRowHasZeroScaleAndIsLossless) {
  for (float c : {0.0f, -2.5f, 7.0f}) {
    std::vector<float> row(33, c);
    std::vector<int8_t> codes(row.size());
    const Sq8Params p = Sq8Encode(row.data(), row.size(), codes.data());
    EXPECT_EQ(p.scale, 0.0f);
    EXPECT_EQ(p.offset, c);
    for (int8_t code : codes) EXPECT_EQ(code, 0);
    std::vector<float> decoded(row.size());
    Sq8Decode(codes.data(), row.size(), p, decoded.data());
    for (float d : decoded) EXPECT_EQ(d, c);  // bit-exact
  }
}

class RowStoreTest : public ::testing::TestWithParam<Storage> {
 protected:
  /// What DecodeRow must return for `row` stored without normalisation:
  /// the row itself in fp32 mode, its codec round trip in sq8 mode.
  std::vector<float> Expected(const std::vector<float>& row) const {
    if (GetParam() == Storage::kFp32) return row;
    std::vector<int8_t> codes(row.size());
    std::vector<float> out(row.size());
    Sq8Decode(codes.data(), row.size(),
              Sq8Encode(row.data(), row.size(), codes.data()), out.data());
    return out;
  }

  static std::string RowBytes(const RowStore& store, size_t slot) {
    std::string out;
    store.SerializeRow(slot, &out);
    return out;
  }
};

TEST_P(RowStoreTest, AppendSetRemoveSwapAndByteAccounting) {
  Rng rng(99);
  const size_t dim = 32;
  RowStore store(dim, GetParam(), /*normalize=*/false);
  EXPECT_TRUE(store.empty());

  std::vector<std::vector<float>> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(RandomRow(rng, dim));
    EXPECT_EQ(store.Append(rows.back().data()), static_cast<size_t>(i));
  }
  EXPECT_EQ(store.size(), 5u);
  // fp32 rows cost 4 bytes per element; sq8 rows dim code bytes plus 2
  // floats of params. Each mode reports only its own representation.
  if (GetParam() == Storage::kFp32) {
    EXPECT_EQ(store.fp32_bytes(), 5 * dim * sizeof(float));
    EXPECT_EQ(store.code_bytes(), 0u);
  } else {
    EXPECT_EQ(store.fp32_bytes(), 0u);
    EXPECT_EQ(store.code_bytes(), 5 * (dim + 2 * sizeof(float)));
  }

  // Set re-encodes in place.
  rows[2] = RandomRow(rng, dim);
  store.Set(2, rows[2].data());

  // Every slot decodes to exactly its encoded row.
  for (size_t s = 0; s < store.size(); ++s) {
    std::vector<float> decoded(dim);
    store.DecodeRow(s, decoded.data());
    EXPECT_EQ(decoded, Expected(rows[s])) << "slot " << s;
  }

  // RemoveSwap(1): the last row (4) moves into slot 1 verbatim.
  const std::string last = RowBytes(store, 4);
  store.RemoveSwap(1);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(RowBytes(store, 1), last);

  // AppendFrom copies encoded rows verbatim (the HNSW rebuild and IVF
  // insert path).
  RowStore copy = store.EmptyLike();
  for (size_t s = 0; s < store.size(); ++s) copy.AppendFrom(store, s);
  for (size_t s = 0; s < store.size(); ++s) {
    EXPECT_EQ(RowBytes(copy, s), RowBytes(store, s)) << "slot " << s;
  }

  store.clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.fp32_bytes() + store.code_bytes(), 0u);
}

TEST_P(RowStoreTest, SerializedRowsAndMatricesRoundTrip) {
  Rng rng(5);
  const size_t dim = 12;
  RowStore store(dim, GetParam(), /*normalize=*/true);
  for (int i = 0; i < 7; ++i) store.Append(RandomRow(rng, dim).data());

  std::string matrix;
  store.SerializeMatrix(&matrix);
  std::string rows;
  for (size_t s = 0; s < store.size(); ++s) store.SerializeRow(s, &rows);
  // A one-row matrix is one row record; larger fp32 matrices are the rows
  // back to back, sq8 matrices group codes, then scales, then offsets.
  EXPECT_EQ(matrix.size(), rows.size());
  if (GetParam() == Storage::kFp32) {
    EXPECT_EQ(matrix, rows);
  }

  RowStore from_matrix = store.EmptyLike();
  ByteReader mr(matrix);
  ASSERT_TRUE(from_matrix.ReadMatrix(&mr, store.size()).ok());
  EXPECT_TRUE(mr.exhausted());
  RowStore from_rows = store.EmptyLike();
  ByteReader rr(rows);
  for (size_t s = 0; s < store.size(); ++s) {
    ASSERT_TRUE(from_rows.ReadRow(&rr).ok());
  }
  EXPECT_TRUE(rr.exhausted());
  for (size_t s = 0; s < store.size(); ++s) {
    EXPECT_EQ(RowBytes(from_matrix, s), RowBytes(store, s));
    EXPECT_EQ(RowBytes(from_rows, s), RowBytes(store, s));
  }

  // Every truncation is a clean error that leaves the store empty.
  for (size_t cut = 0; cut < matrix.size(); ++cut) {
    RowStore target = store.EmptyLike();
    ByteReader r(std::string_view(matrix.data(), cut));
    EXPECT_FALSE(target.ReadMatrix(&r, store.size()).ok()) << "cut " << cut;
    EXPECT_TRUE(target.empty());
  }
}

TEST_P(RowStoreTest, ScoresAgreeAcrossKernelsAndWithDecodedRows) {
  Rng rng(17);
  const size_t dim = 24, n = 40;
  RowStore store(dim, GetParam(), /*normalize=*/true);
  for (size_t i = 0; i < n; ++i) store.Append(RandomRow(rng, dim).data());
  const std::vector<float> raw = RandomRow(rng, dim, 3.0f);
  const RowStore::Query q = store.PrepareQuery(raw.data());
  EXPECT_NEAR(simd::Norm(q.data(), dim), 1.0f, 1e-5f);  // normalised copy

  std::vector<float> batch(n);
  store.ScoreBatch(q, 0, n, batch.data());
  std::vector<float> decoded(dim);
  for (size_t i = 0; i < n; ++i) {
    store.DecodeRow(i, decoded.data());
    EXPECT_NEAR(store.Score(q, i), batch[i], 1e-5f) << "row " << i;
    EXPECT_NEAR(batch[i], simd::Dot(q.data(), decoded.data(), dim), 1e-4f);
  }

  // A stored row as the query side is the decoded row, not re-normalised.
  const RowStore::Query row_q = store.RowQuery(7);
  store.DecodeRow(7, decoded.data());
  EXPECT_EQ(row_q.vec, decoded);
}

INSTANTIATE_TEST_SUITE_P(BothModes, RowStoreTest,
                         ::testing::Values(Storage::kFp32, Storage::kSq8),
                         [](const auto& info) {
                           return std::string(StorageName(info.param));
                         });

// The headline claim of the storage mode: per-row bytes drop >= 3x vs
// fp32 for every realistic embedding dim (dim 32 is the server default).
TEST(RowStoreBytesTest, PerRowBytesAtLeast3xSmallerThanFp32) {
  for (size_t dim : {32u, 64u, 128u, 256u}) {
    const std::vector<float> row(dim, 0.5f);
    RowStore fp32(dim, Storage::kFp32, false);
    RowStore sq8(dim, Storage::kSq8, false);
    fp32.Append(row.data());
    sq8.Append(row.data());
    EXPECT_GE(fp32.fp32_bytes(), 3 * sq8.code_bytes()) << "dim=" << dim;
  }
}

}  // namespace
}  // namespace sccf::quant
