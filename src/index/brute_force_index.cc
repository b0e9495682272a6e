#include "index/brute_force_index.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/coding.h"

namespace sccf::index {

BruteForceIndex::BruteForceIndex(size_t dim, Metric metric,
                                 quant::Storage storage)
    : metric_(metric), rows_(dim, storage, metric == Metric::kCosine) {}

Status BruteForceIndex::Add(int id, const float* vec) {
  if (id < 0) return Status::InvalidArgument("id must be non-negative");
  auto it = slot_.find(id);
  if (it != slot_.end()) {
    rows_.Set(it->second, vec);
    return Status::OK();
  }
  const size_t s = rows_.Append(vec);
  ids_.push_back(id);
  slot_[id] = s;
  return Status::OK();
}

Status BruteForceIndex::Remove(int id) {
  auto it = slot_.find(id);
  if (it == slot_.end()) {
    return Status::NotFound("id not in index: " + std::to_string(id));
  }
  const size_t s = it->second;
  const size_t last = ids_.size() - 1;
  if (s != last) {  // swap the last row into the vacated slot
    ids_[s] = ids_[last];
    slot_[ids_[s]] = s;
  }
  rows_.RemoveSwap(s);
  ids_.pop_back();
  slot_.erase(it);
  return Status::OK();
}

IndexMemoryStats BruteForceIndex::memory_stats() const {
  IndexMemoryStats stats;
  stats.embedding_bytes = rows_.fp32_bytes();
  stats.code_bytes = rows_.code_bytes();
  return stats;
}

Status BruteForceIndex::SearchInto(const float* query, int exclude_id,
                                   const UpsertBuffer* shadow,
                                   TopKAccumulator* acc) const {
  // Slots of the rows staged updates shadow, ascending: one lookup per
  // staged id, then one pass beside the scan.
  std::vector<size_t> shadowed;
  if (shadow != nullptr && !shadow->empty()) {
    shadowed.reserve(shadow->size());
    for (int id : shadow->ids()) {
      const auto it = slot_.find(id);
      if (it != slot_.end()) shadowed.push_back(it->second);
    }
    std::sort(shadowed.begin(), shadowed.end());
  }
  const quant::RowStore::Query q = rows_.PrepareQuery(query);
  constexpr size_t kBlock = 256;
  float scores[kBlock];
  size_t next = 0;
  for (size_t s = 0; s < ids_.size(); s += kBlock) {
    const size_t len = std::min(kBlock, ids_.size() - s);
    rows_.ScoreBatch(q, s, len, scores);
    for (; next < shadowed.size() && shadowed[next] < s + len; ++next) {
      scores[shadowed[next] - s] = std::numeric_limits<float>::quiet_NaN();
    }
    acc->OfferBlock(ids_.data() + s, scores, len, exclude_id);
  }
  return Status::OK();
}

// Payload layout (inside the persist layer's checksummed framing):
//   u8 tag 'B' | u8 storage | u8 ids_are_slots | u64 dim | u64 count
//   i32 id x count
//   fp32: f32 row x (count * dim)
//   sq8:  i8 code x (count * dim) | f32 scale x count | f32 offset x count
// Rows are stored exactly as held in memory (already normalised when the
// metric is cosine; codes and params verbatim in sq8 mode), so restore is
// a memcpy, not a re-normalisation or re-quantization — that is what
// makes recovery bit-exact. ids_are_slots is 1 when ids[i] == i for every
// slot; Search no longer reads it, but it stays so the blob format holds.
void BruteForceIndex::SerializeTo(std::string* out) const {
  bool ids_are_slots = true;
  for (size_t i = 0; i < ids_.size(); ++i) {
    ids_are_slots &= ids_[i] == static_cast<int>(i);
  }
  PutU8(out, 'B');
  PutU8(out, static_cast<uint8_t>(storage()));
  PutU8(out, ids_are_slots ? 1 : 0);
  PutFixed64(out, static_cast<uint64_t>(dim()));
  PutFixed64(out, static_cast<uint64_t>(ids_.size()));
  for (int id : ids_) PutI32(out, id);
  rows_.SerializeMatrix(out);
}

Status BruteForceIndex::DeserializeFrom(std::string_view in) {
  ByteReader reader(in);
  uint8_t tag = 0, storage = 0, ids_are_slots = 0;
  uint64_t dim = 0, count = 0;
  SCCF_RETURN_NOT_OK(reader.ReadU8(&tag));
  if (tag != 'B') {
    return Status::InvalidArgument("not a brute-force index blob");
  }
  SCCF_RETURN_NOT_OK(reader.ReadU8(&storage));
  if (storage != static_cast<uint8_t>(this->storage())) {
    return Status::InvalidArgument("index blob storage mode mismatch");
  }
  SCCF_RETURN_NOT_OK(reader.ReadU8(&ids_are_slots));
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&dim));
  if (dim != this->dim()) {
    return Status::InvalidArgument("index blob dim mismatch");
  }
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&count));

  std::vector<int> ids;
  std::unordered_map<int, size_t> slot;
  if (count > reader.remaining() / 4) {
    return Status::IoError("truncated index blob (ids)");
  }
  ids.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t id = 0;
    SCCF_RETURN_NOT_OK(reader.ReadI32(&id));
    if (id < 0) return Status::InvalidArgument("negative id in index blob");
    if (!slot.emplace(id, static_cast<size_t>(i)).second) {
      return Status::InvalidArgument("duplicate id in index blob");
    }
    // A set flag must be true of the ids it describes.
    if (ids_are_slots != 0 && static_cast<uint64_t>(id) != i) {
      return Status::InvalidArgument("index blob ids are not their slots");
    }
    ids.push_back(id);
  }
  quant::RowStore rows = rows_.EmptyLike();
  SCCF_RETURN_NOT_OK(rows.ReadMatrix(&reader, static_cast<size_t>(count)));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes in index blob");
  }

  ids_ = std::move(ids);
  slot_ = std::move(slot);
  rows_ = std::move(rows);
  return Status::OK();
}

}  // namespace sccf::index
