#include "index/vector_index.h"

#include <algorithm>

namespace sccf::index {

namespace {
struct MinHeapCmp {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;  // among equal scores, evict the larger id first
  }
};
}  // namespace

void TopKAccumulator::Offer(int id, float score) {
  if (k_ == 0) return;
  if (heap_.size() < k_) {
    heap_.push_back({id, score});
    std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp());
    return;
  }
  if (!WouldAccept(score)) return;
  std::pop_heap(heap_.begin(), heap_.end(), MinHeapCmp());
  heap_.back() = {id, score};
  std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp());
}

std::vector<Neighbor> TopKAccumulator::Take() {
  std::vector<Neighbor> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
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
