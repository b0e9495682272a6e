#include "quant/row_store.h"

#include <algorithm>
#include <string_view>

#include "simd/kernels.h"

namespace sccf::quant {

namespace {

float Sum(const float* v, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += v[i];
  return s;
}

}  // namespace

void RowStore::NormalizeInto(const float* row, float* out) const {
  if (normalize_) {
    simd::NormalizeCopy(row, out, dim_);
  } else {
    std::copy_n(row, dim_, out);
  }
}

size_t RowStore::Append(const float* row) {
  const size_t slot = size_++;
  if (sq8()) {
    codes_.resize(size_ * dim_);
    scales_.push_back(0.0f);
    offsets_.push_back(0.0f);
  } else {
    data_.resize(size_ * dim_);
  }
  Set(slot, row);
  return slot;
}

void RowStore::Set(size_t slot, const float* row) {
  if (!sq8()) {
    NormalizeInto(row, data_.data() + slot * dim_);
    return;
  }
  std::vector<float> normed(dim_);
  NormalizeInto(row, normed.data());
  const Sq8Params p =
      Sq8Encode(normed.data(), dim_, codes_.data() + slot * dim_);
  scales_[slot] = p.scale;
  offsets_[slot] = p.offset;
}

void RowStore::AppendFrom(const RowStore& from, size_t slot) {
  if (sq8()) {
    const auto row = from.codes_.begin() + slot * dim_;
    codes_.insert(codes_.end(), row, row + dim_);
    scales_.push_back(from.scales_[slot]);
    offsets_.push_back(from.offsets_[slot]);
  } else {
    const auto row = from.data_.begin() + slot * dim_;
    data_.insert(data_.end(), row, row + dim_);
  }
  ++size_;
}

void RowStore::RemoveSwap(size_t slot) {
  const size_t last = --size_;
  if (sq8()) {
    if (slot != last) {
      std::copy_n(codes_.begin() + last * dim_, dim_,
                  codes_.begin() + slot * dim_);
      scales_[slot] = scales_[last];
      offsets_[slot] = offsets_[last];
    }
    codes_.resize(last * dim_);
    scales_.pop_back();
    offsets_.pop_back();
  } else {
    if (slot != last) {
      std::copy_n(data_.begin() + last * dim_, dim_,
                  data_.begin() + slot * dim_);
    }
    data_.resize(last * dim_);
  }
}

void RowStore::clear() {
  size_ = 0;
  data_.clear();
  codes_.clear();
  scales_.clear();
  offsets_.clear();
}

void RowStore::DecodeRow(size_t slot, float* out) const {
  if (sq8()) {
    Sq8Decode(codes_.data() + slot * dim_, dim_,
              {scales_[slot], offsets_[slot]}, out);
  } else {
    std::copy_n(data_.data() + slot * dim_, dim_, out);
  }
}

RowStore::Query RowStore::PrepareQuery(const float* q) const {
  Query out;
  out.vec.resize(dim_);
  NormalizeInto(q, out.vec.data());
  if (sq8()) out.sum = Sum(out.data(), dim_);
  return out;
}

RowStore::Query RowStore::RowQuery(size_t slot) const {
  Query out;
  out.vec.resize(dim_);
  DecodeRow(slot, out.vec.data());
  if (sq8()) out.sum = Sum(out.data(), dim_);
  return out;
}

float RowStore::Score(const Query& q, size_t slot) const {
  if (sq8()) {
    return scales_[slot] * simd::DotI8(q.data(), codes_.data() + slot * dim_,
                                       dim_) +
           offsets_[slot] * q.sum;
  }
  return simd::Dot(q.data(), data_.data() + slot * dim_, dim_);
}

void RowStore::ScoreBatch(const Query& q, size_t lo, size_t count,
                          float* out) const {
  if (sq8()) {
    simd::DotBatchI8(q.data(), codes_.data() + lo * dim_, count, dim_, out);
    for (size_t j = 0; j < count; ++j) {
      out[j] = scales_[lo + j] * out[j] + offsets_[lo + j] * q.sum;
    }
    return;
  }
  simd::DotBatch(q.data(), data_.data() + lo * dim_, count, dim_, out);
}

void RowStore::SerializeRow(size_t slot, std::string* out) const {
  if (sq8()) {
    out->append(reinterpret_cast<const char*>(codes_.data() + slot * dim_),
                dim_);
    PutF32(out, scales_[slot]);
    PutF32(out, offsets_[slot]);
  } else {
    PutFloats(out, data_.data() + slot * dim_, dim_);
  }
}

void RowStore::SerializeMatrix(std::string* out) const {
  if (sq8()) {
    out->append(reinterpret_cast<const char*>(codes_.data()), codes_.size());
    PutFloats(out, scales_.data(), scales_.size());
    PutFloats(out, offsets_.data(), offsets_.size());
  } else {
    PutFloats(out, data_.data(), data_.size());
  }
}

Status RowStore::ReadMatrix(ByteReader* reader, size_t count) {
  if (sq8()) {
    std::string_view raw;
    std::vector<float> scales, offsets;
    SCCF_RETURN_NOT_OK(reader->ReadView(count * dim_, &raw));
    SCCF_RETURN_NOT_OK(reader->ReadFloats(count, &scales));
    SCCF_RETURN_NOT_OK(reader->ReadFloats(count, &offsets));
    const auto* codes = reinterpret_cast<const int8_t*>(raw.data());
    codes_.insert(codes_.end(), codes, codes + raw.size());
    scales_.insert(scales_.end(), scales.begin(), scales.end());
    offsets_.insert(offsets_.end(), offsets.begin(), offsets.end());
  } else {
    std::vector<float> data;
    SCCF_RETURN_NOT_OK(reader->ReadFloats(count * dim_, &data));
    data_.insert(data_.end(), data.begin(), data.end());
  }
  size_ += count;
  return Status::OK();
}

}  // namespace sccf::quant
