#include "index/ivf_flat_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simd/kernels.h"
#include "util/coding.h"
#include "util/logging.h"

namespace sccf::index {

IvfFlatIndex::IvfFlatIndex(size_t dim, Metric metric, Options options,
                           quant::Storage storage)
    : dim_(dim),
      metric_(metric),
      options_(options),
      encoder_(dim, storage, metric == Metric::kCosine) {
  SCCF_CHECK_GT(options_.nlist, 0u);
  SCCF_CHECK_GT(options_.nprobe, 0u);
}

Status IvfFlatIndex::Train(const std::vector<float>& vectors, size_t n) {
  if (vectors.size() != n * dim_) {
    return Status::InvalidArgument("training data size mismatch");
  }
  if (n < options_.nlist) {
    return Status::InvalidArgument(
        "need at least nlist training vectors, got " + std::to_string(n));
  }
  // Work on a normalised copy for cosine so centroids live in query space.
  std::vector<float> train = vectors;
  if (metric_ == Metric::kCosine) {
    for (size_t i = 0; i < n; ++i) {
      simd::NormalizeInPlace(&train[i * dim_], dim_);
    }
  }

  // k-means++ style seeding (random distinct picks) then Lloyd iterations.
  Rng rng(options_.seed);
  const size_t nlist = options_.nlist;
  centroids_.assign(nlist * dim_, 0.0f);
  std::vector<uint64_t> seeds = rng.SampleWithoutReplacement(n, nlist);
  for (size_t c = 0; c < nlist; ++c) {
    std::copy_n(train.data() + seeds[c] * dim_, dim_,
                centroids_.data() + c * dim_);
  }

  std::vector<size_t> assign(n, 0);
  std::vector<size_t> count(nlist, 0);
  for (size_t iter = 0; iter < options_.kmeans_iters; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      size_t best = NearestCentroid(&train[i * dim_]);
      if (best != assign[i]) {
        assign[i] = best;
        changed = true;
      }
    }
    std::fill(count.begin(), count.end(), 0u);
    std::vector<float> sums(nlist * dim_, 0.0f);
    for (size_t i = 0; i < n; ++i) {
      ++count[assign[i]];
      simd::Axpy(1.0f, &train[i * dim_], &sums[assign[i] * dim_], dim_);
    }
    for (size_t c = 0; c < nlist; ++c) {
      if (count[c] == 0) {
        // Re-seed an empty cluster with a random vector to keep all lists
        // usable.
        const size_t pick = rng.Uniform(n);
        std::copy_n(train.data() + pick * dim_, dim_,
                    centroids_.data() + c * dim_);
        continue;
      }
      const float inv = 1.0f / count[c];
      for (size_t j = 0; j < dim_; ++j) {
        centroids_[c * dim_ + j] = sums[c * dim_ + j] * inv;
      }
    }
    if (!changed && iter > 0) break;
  }

  lists_.assign(nlist, List{{}, encoder_.EmptyLike()});
  assignment_.clear();
  trained_ = true;
  return Status::OK();
}

size_t IvfFlatIndex::NearestCentroid(const float* vec) const {
  size_t best = 0;
  float best_d = simd::SquaredL2(vec, &centroids_[0], dim_);
  for (size_t c = 1; c < options_.nlist; ++c) {
    const float d = simd::SquaredL2(vec, &centroids_[c * dim_], dim_);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

Status IvfFlatIndex::Add(int id, const float* vec) {
  if (!trained_) {
    return Status::FailedPrecondition("IvfFlatIndex::Train must run first");
  }
  if (id < 0) return Status::InvalidArgument("id must be non-negative");

  // Encode first, then bucket by the row as stored (DECODED in sq8 mode),
  // so it lives in the list closest to the vector queries actually score
  // — assignment and search stay in the same space.
  encoder_.clear();
  encoder_.Append(vec);
  std::vector<float> v(dim_);
  encoder_.DecodeRow(0, v.data());

  auto it = assignment_.find(id);
  if (it != assignment_.end()) {
    // Streaming update: remove from the old list first.
    RemoveFromList(it->second.first, it->second.second);
    assignment_.erase(it);
  }

  const size_t list = NearestCentroid(v.data());
  lists_[list].ids.push_back(id);
  lists_[list].rows.AppendFrom(encoder_, 0);
  assignment_[id] = {list, lists_[list].ids.size() - 1};
  return Status::OK();
}

void IvfFlatIndex::RemoveFromList(size_t list, size_t pos) {
  List& l = lists_[list];
  if (pos != l.ids.size() - 1) {
    l.ids[pos] = l.ids.back();
    assignment_[l.ids[pos]] = {list, pos};
  }
  l.ids.pop_back();
  l.rows.RemoveSwap(pos);
}

Status IvfFlatIndex::Remove(int id) {
  auto it = assignment_.find(id);
  if (it == assignment_.end()) {
    return Status::NotFound("id not in index: " + std::to_string(id));
  }
  // True delete: same swap-with-back the streaming-update path uses.
  RemoveFromList(it->second.first, it->second.second);
  assignment_.erase(it);
  return Status::OK();
}

IndexMemoryStats IvfFlatIndex::memory_stats() const {
  IndexMemoryStats stats;
  stats.embedding_bytes = centroids_.size() * sizeof(float);
  for (const List& l : lists_) {
    stats.embedding_bytes += l.rows.fp32_bytes();
    stats.code_bytes += l.rows.code_bytes();
  }
  return stats;
}

StatusOr<std::vector<Neighbor>> IvfFlatIndex::Search(const float* query,
                                                     size_t k, int exclude_id,
                                                     float floor) const {
  if (!trained_) {
    return Status::FailedPrecondition("IvfFlatIndex::Train must run first");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");

  const quant::RowStore::Query q = encoder_.PrepareQuery(query);

  // Rank centroids by distance and scan the nprobe closest lists.
  const size_t nlist = options_.nlist;
  std::vector<std::pair<float, size_t>> order(nlist);
  for (size_t c = 0; c < nlist; ++c) {
    order[c] = {simd::SquaredL2(q.data(), &centroids_[c * dim_], dim_), c};
  }
  const size_t nprobe = std::min(options_.nprobe, nlist);
  std::partial_sort(order.begin(), order.begin() + nprobe, order.end());

  TopKAccumulator acc(k, floor);
  for (size_t p = 0; p < nprobe; ++p) {
    const List& l = lists_[order[p].second];
    for (size_t i = 0; i < l.ids.size(); ++i) {
      if (l.ids[i] == exclude_id) continue;
      acc.Offer(l.ids[i], l.rows.Score(q, i));
    }
  }
  return acc.Take();
}

// Payload layout:
//   u8 tag 'I' | u8 storage | u64 dim | u8 trained | u64 nlist
//   f32 centroid x (nlist * dim)
//   per list: u64 count | per row: i32 id | row (quant::RowStore::
//     SerializeRow: fp32 f32 x dim, or sq8 i8 code x dim | f32 scale |
//     f32 offset)
// Centroids are persisted rather than re-trained: Train() re-seeds empty
// clusters from its own RNG, so a re-run could place centroids (and thus
// postings) differently from the serialized run. assignment_ is derived
// from lists_ and not stored. SQ8 codes/params are verbatim bytes —
// restore never re-quantizes.
void IvfFlatIndex::SerializeTo(std::string* out) const {
  PutU8(out, 'I');
  PutU8(out, static_cast<uint8_t>(storage()));
  PutFixed64(out, static_cast<uint64_t>(dim_));
  PutU8(out, trained_ ? 1 : 0);
  PutFixed64(out, static_cast<uint64_t>(lists_.size()));
  PutFloats(out, centroids_.data(), centroids_.size());
  for (const List& l : lists_) {
    PutFixed64(out, static_cast<uint64_t>(l.ids.size()));
    for (size_t i = 0; i < l.ids.size(); ++i) {
      PutI32(out, l.ids[i]);
      l.rows.SerializeRow(i, out);
    }
  }
}

Status IvfFlatIndex::DeserializeFrom(std::string_view in) {
  ByteReader reader(in);
  uint8_t tag = 0, storage = 0, trained = 0;
  uint64_t dim = 0, nlist = 0;
  SCCF_RETURN_NOT_OK(reader.ReadU8(&tag));
  if (tag != 'I') return Status::InvalidArgument("not an IVF index blob");
  SCCF_RETURN_NOT_OK(reader.ReadU8(&storage));
  if (storage != static_cast<uint8_t>(this->storage())) {
    return Status::InvalidArgument("index blob storage mode mismatch");
  }
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&dim));
  if (dim != dim_) {
    return Status::InvalidArgument("index blob dim mismatch");
  }
  SCCF_RETURN_NOT_OK(reader.ReadU8(&trained));
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&nlist));
  // The serializing index's nlist was clamped to its *bootstrap*
  // population (see core::BuildIndex), which a restoring index
  // constructed later cannot re-derive — so the blob's nlist is
  // authoritative and options_.nlist is adopted from it below.
  // Bound it only against the buffer so an adversarial count cannot
  // drive the centroid read into a huge allocation.
  if (trained != 0 &&
      (nlist == 0 || (dim_ != 0 && nlist > in.size() / (4 * dim_) + 1))) {
    return Status::InvalidArgument("index blob nlist out of range");
  }
  if (trained == 0 && nlist != 0) {
    return Status::InvalidArgument("untrained index blob with lists");
  }

  std::vector<float> centroids;
  SCCF_RETURN_NOT_OK(
      reader.ReadFloats(static_cast<size_t>(nlist) * dim_, &centroids));
  std::vector<List> lists(static_cast<size_t>(nlist),
                          List{{}, encoder_.EmptyLike()});
  std::unordered_map<int, std::pair<size_t, size_t>> assignment;
  for (size_t list = 0; list < lists.size(); ++list) {
    uint64_t count = 0;
    SCCF_RETURN_NOT_OK(reader.ReadFixed64(&count));
    // Each row costs at least 4 + dim bytes (sq8) or 4 + 4 * dim (fp32);
    // bound with the smaller.
    if (count > reader.remaining() / (4 + dim_)) {
      return Status::IoError("truncated index blob (posting list)");
    }
    lists[list].ids.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      int32_t id = 0;
      SCCF_RETURN_NOT_OK(reader.ReadI32(&id));
      if (id < 0) {
        return Status::InvalidArgument("negative id in index blob");
      }
      SCCF_RETURN_NOT_OK(lists[list].rows.ReadRow(&reader));
      if (!assignment.emplace(id, std::make_pair(list, static_cast<size_t>(i)))
               .second) {
        return Status::InvalidArgument("duplicate id in index blob");
      }
      lists[list].ids.push_back(id);
    }
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes in index blob");
  }

  trained_ = trained != 0;
  if (trained_) options_.nlist = static_cast<size_t>(nlist);
  centroids_ = std::move(centroids);
  lists_ = std::move(lists);
  assignment_ = std::move(assignment);
  return Status::OK();
}

}  // namespace sccf::index
