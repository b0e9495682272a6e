#ifndef SCCF_QUANT_ROW_STORE_H_
#define SCCF_QUANT_ROW_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "quant/sq8.h"
#include "util/coding.h"
#include "util/status.h"

namespace sccf::quant {

/// Dense slot-major matrix of embedding rows, held as fp32 or as SQ8
/// codes plus per-row scale/offset. It is the one place the storage mode
/// is decided: every index backend and the upsert buffer hold their rows
/// in a RowStore and score through it, so they never branch on Storage.
///
/// Rows are encoded the way the backends define similarity. With
/// `normalize` (the cosine metric) a row is L2-normalised before it is
/// stored or quantized, so the inner product on the stored row is cosine.
/// PrepareQuery applies the same normalisation to a query and precomputes
/// sum(q), which the affine int8 score needs:
///   sq8 score = scale * DotI8(q, codes) + offset * sum(q).
///
/// Encoded rows only ever move verbatim: AppendFrom, RemoveSwap and the
/// deserializers copy codes and params as stored and never re-encode, so
/// rebuilds, swap-removes and snapshot restores are bit-exact.
class RowStore {
 public:
  /// A query ready for Score / ScoreBatch: the fp32 vector in the
  /// store's space plus its element sum (read only by sq8 scoring).
  struct Query {
    std::vector<float> vec;
    float sum = 0.0f;
    const float* data() const { return vec.data(); }
  };

  RowStore(size_t dim, Storage storage, bool normalize)
      : dim_(dim), storage_(storage), normalize_(normalize) {}

  /// A new empty store with this one's dim, storage and normalisation.
  RowStore EmptyLike() const { return RowStore(dim_, storage_, normalize_); }

  size_t dim() const { return dim_; }
  Storage storage() const { return storage_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Encodes `row` (dim floats) into a new slot; returns the slot.
  size_t Append(const float* row);
  /// Re-encodes `row` into an existing slot.
  void Set(size_t slot, const float* row);
  /// Appends row `slot` of `from` verbatim. Pre: same dim and storage.
  void AppendFrom(const RowStore& from, size_t slot);
  /// Moves the last row into `slot` (no-op move when `slot` is last) and
  /// drops the last slot. The caller fixes up its own slot maps.
  void RemoveSwap(size_t slot);
  void clear();

  /// The stored row as fp32 (decoded in sq8 mode).
  void DecodeRow(size_t slot, float* out) const;

  /// A normalised (if the store normalises) copy of `q` and its sum.
  Query PrepareQuery(const float* q) const;
  /// Stored row `slot` as a query: the decoded row and its sum, never
  /// re-normalised, so it scores in the same space the row is stored in.
  Query RowQuery(size_t slot) const;

  /// Similarity of `q` to row `slot` through the single-row kernel.
  float Score(const Query& q, size_t slot) const;
  /// out[j] = similarity of `q` to row lo + j for j in [0, count), through
  /// the batched kernel.
  void ScoreBatch(const Query& q, size_t lo, size_t count, float* out) const;

  /// Bytes of fp32 rows held (0 in sq8 mode).
  size_t fp32_bytes() const { return data_.size() * sizeof(float); }
  /// Bytes of SQ8 codes plus per-row params held (0 in fp32 mode).
  size_t code_bytes() const {
    return codes_.size() * sizeof(int8_t) +
           (scales_.size() + offsets_.size()) * sizeof(float);
  }

  /// Appends one row as stored. fp32: f32 x dim. sq8: i8 code x dim |
  /// f32 scale | f32 offset.
  void SerializeRow(size_t slot, std::string* out) const;
  /// Reads one SerializeRow record and appends it as a new row (a
  /// one-row matrix has the row layout).
  Status ReadRow(ByteReader* reader) { return ReadMatrix(reader, 1); }
  /// Appends every row. fp32: f32 x (size * dim). sq8: i8 code x
  /// (size * dim) | f32 scale x size | f32 offset x size.
  void SerializeMatrix(std::string* out) const;
  /// Reads a SerializeMatrix record of `count` rows and appends them.
  /// On error the store is unchanged.
  Status ReadMatrix(ByteReader* reader, size_t count);

 private:
  bool sq8() const { return storage_ == Storage::kSq8; }
  /// out = `row`, L2-normalised when the store normalises.
  void NormalizeInto(const float* row, float* out) const;

  size_t dim_ = 0;
  Storage storage_ = Storage::kFp32;
  bool normalize_ = false;
  size_t size_ = 0;
  std::vector<float> data_;     // fp32: size x dim, row-major
  std::vector<int8_t> codes_;   // sq8: size x dim, row-major
  std::vector<float> scales_;   // sq8: per row
  std::vector<float> offsets_;  // sq8: per row
};

}  // namespace sccf::quant

#endif  // SCCF_QUANT_ROW_STORE_H_
