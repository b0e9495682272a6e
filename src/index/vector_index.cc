#include "index/vector_index.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace sccf::index {

namespace {
// Scores are filtered this many at a time, so a block's appends always fit
// in the write space MakeRoom guarantees.
constexpr size_t kBlock = 256;
constexpr size_t kGroup = 16;

static_assert(sizeof(Neighbor) == sizeof(uint64_t));

// Partitions v[lo, hi), hi - lo >= 2, around the median of its first,
// middle and last elements and returns the pivot's final index m: v[lo, m)
// ranks before it by NeighborBefore and v[m + 1, hi) after. The loop has
// no data-dependent branch: every element is swapped to the boundary and
// the boundary advances by the compare's result. Elements move as whole
// 8-byte words so the next load of the boundary slot is forwarded from the
// last store.
size_t Partition(Neighbor* v, size_t lo, size_t hi) {
  const size_t mid = lo + (hi - lo) / 2;
  if (NeighborBefore(v[mid], v[lo])) std::swap(v[mid], v[lo]);
  if (NeighborBefore(v[hi - 1], v[lo])) std::swap(v[hi - 1], v[lo]);
  if (NeighborBefore(v[mid], v[hi - 1])) std::swap(v[mid], v[hi - 1]);
  const Neighbor pivot = v[hi - 1];
  size_t m = lo;
  for (size_t i = lo; i + 1 < hi; ++i) {
    uint64_t x, y;
    std::memcpy(&x, static_cast<const void*>(v + i), sizeof(x));
    std::memcpy(&y, static_cast<const void*>(v + m), sizeof(y));
    std::memcpy(static_cast<void*>(v + i), &y, sizeof(y));
    std::memcpy(static_cast<void*>(v + m), &x, sizeof(x));
    Neighbor nb;
    std::memcpy(static_cast<void*>(&nb), &x, sizeof(nb));
    m += static_cast<size_t>(NeighborBefore(nb, pivot));
  }
  std::swap(v[m], v[hi - 1]);
  return m;
}

// Pivot rounds after which the std:: algorithms take over, bounding the
// cost of inputs that defeat median-of-three.
constexpr int kMaxRounds = 64;

// Reorders v[0, n) so that v[0, k) holds its k best by NeighborBefore and
// v[k - 1] the k-th best. Pre: 1 <= k <= n.
void SelectBest(Neighbor* v, size_t n, size_t k) {
  size_t lo = 0, hi = n;
  for (int round = 0; hi - lo > 1; ++round) {
    if (round == kMaxRounds) {
      std::nth_element(v + lo, v + (k - 1), v + hi, NeighborBefore);
      return;
    }
    const size_t m = Partition(v, lo, hi);
    if (m == k - 1) return;
    if (m > k - 1) {
      hi = m;
    } else {
      lo = m + 1;
    }
  }
}

// Sorts v[0, n) by NeighborBefore: quicksort on Partition down to short
// runs, which std::sort finishes.
void SortBest(Neighbor* v, size_t n, int round = 0) {
  for (; n > 16 && round < kMaxRounds; ++round) {
    const size_t m = Partition(v, 0, n);
    // Recurse into the shorter side and loop on the longer one.
    if (m < n - m - 1) {
      SortBest(v, m, round + 1);
      v += m + 1;
      n -= m + 1;
    } else {
      SortBest(v + m + 1, n - m - 1, round + 1);
      n = m;
    }
  }
  std::sort(v, v + n, NeighborBefore);
}
}  // namespace

TopKAccumulator::TopKAccumulator(size_t k, float floor)
    : k_(k), threshold_(floor) {
  buf_.resize(std::min(2 * k, kBlock));
}

void TopKAccumulator::Push(int id, float score) {
  if (k_ == 0) return;
  if (n_ == buf_.size()) MakeRoom(1);
  buf_[n_++] = {id, score};
}

void TopKAccumulator::MakeRoom(size_t len) {
  if (n_ >= 2 * k_) Compact();
  if (buf_.size() - n_ < len) {
    buf_.resize(std::max(n_ + len, 2 * buf_.size()));
  }
}

void TopKAccumulator::Compact() {
  SelectBest(buf_.data(), n_, k_);
  n_ = k_;
  threshold_ = buf_[k_ - 1].score;
}

template <typename IdAt>
void TopKAccumulator::AppendAtOrAbove(IdAt id_at, const float* scores,
                                      size_t n, int exclude_id) {
  if (k_ == 0) return;
  for (size_t lo = 0; lo < n; lo += kBlock) {
    const size_t len = std::min(kBlock, n - lo);
    MakeRoom(len);
    // Every row is written to the next free slot and the slot is claimed
    // only when the row passes, so the loop has no data-dependent branch.
    // A group of kGroup rows all below the threshold (most of them, once
    // it has risen) is skipped after counting its passes.
    Neighbor* out = buf_.data();
    const float t = threshold_;
    const float* s = scores + lo;
    size_t m = n_;
    for (size_t g = 0; g < len; g += kGroup) {
      const size_t glen = std::min(kGroup, len - g);
      if (glen == kGroup) {
        int passed = 0;
        for (size_t j = 0; j < kGroup; ++j) passed += s[g + j] >= t;
        if (passed == 0) continue;
      }
      for (size_t j = g; j < g + glen; ++j) {
        const int id = id_at(lo + j);
        out[m] = {id, s[j]};
        m += static_cast<size_t>((s[j] >= t) & (id != exclude_id));
      }
    }
    n_ = m;
  }
}

void TopKAccumulator::OfferBlock(const int* ids, const float* scores,
                                 size_t n, int exclude_id) {
  AppendAtOrAbove([ids](size_t j) { return ids[j]; }, scores, n,
                  exclude_id);
}

void TopKAccumulator::OfferDense(int first_id, const float* scores,
                                 size_t n) {
  AppendAtOrAbove(
      [first_id](size_t j) { return first_id + static_cast<int>(j); },
      scores, n, /*exclude_id=*/-1);
}

float TopKAccumulator::Floor() {
  if (k_ > 0 && n_ >= k_) Compact();
  return threshold_;
}

std::vector<Neighbor> TopKAccumulator::Take() {
  if (n_ > k_) Compact();
  buf_.resize(n_);
  SortBest(buf_.data(), n_);
  std::vector<Neighbor> out = std::move(buf_);
  buf_.clear();
  n_ = 0;
  return out;
}

void UpsertBuffer::Put(int id, const float* vec) {
  auto it = pos_.find(id);
  if (it != pos_.end()) {
    std::copy_n(vec, dim(), raw_.data() + it->second * dim());
    rows_.Set(it->second, vec);
    return;
  }
  pos_[id] = ids_.size();
  ids_.push_back(id);
  raw_.insert(raw_.end(), vec, vec + dim());
  rows_.Append(vec);
}

void UpsertBuffer::OfferTo(const float* query, int exclude_id,
                           TopKAccumulator* acc) const {
  if (ids_.empty()) return;
  const quant::RowStore::Query q = rows_.PrepareQuery(query);
  for (size_t row = 0; row < ids_.size(); ++row) {
    if (ids_[row] == exclude_id) continue;
    acc->Offer(ids_[row], rows_.Score(q, row));
  }
}

Status UpsertBuffer::DrainTo(VectorIndex* index) {
  Status first_error;
  for (size_t i = 0; i < ids_.size(); ++i) {
    Status st = index->Add(ids_[i], row(i));
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  ids_.clear();
  raw_.clear();
  rows_.clear();
  pos_.clear();
  return first_error;
}

}  // namespace sccf::index
