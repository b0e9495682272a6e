#ifndef SCCF_INDEX_BRUTE_FORCE_INDEX_H_
#define SCCF_INDEX_BRUTE_FORCE_INDEX_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "index/vector_index.h"
#include "quant/row_store.h"

namespace sccf::index {

/// Exact top-k search by exhaustive scan. O(n * d) per query. Serves as the ground truth
/// for ANN recall tests and as the paper's exact-Faiss stand-in at the
/// corpus sizes used in the offline experiments.
///
/// Thread-safety: concurrent Search calls are safe (query scratch is
/// local); Add requires exclusive access (it may grow/rehash rows_, ids_,
/// and slot_, invalidating a concurrent scan). See the contract in
/// vector_index.h.
class BruteForceIndex : public VectorIndex {
 public:
  BruteForceIndex(size_t dim, Metric metric,
                  quant::Storage storage = quant::Storage::kFp32);
  /// The same index; the third argument is ignored. It is the old
  /// `parallel` flag, kept only so the benchmark under perfbench/, which
  /// passes it, still builds.
  BruteForceIndex(size_t dim, Metric metric, bool /*parallel*/,
                  quant::Storage storage)
      : BruteForceIndex(dim, metric, storage) {}

  Status Add(int id, const float* vec) override;
  Status Remove(int id) override;
  /// Scans the rows in blocks of 256 straight into `acc`; a shadowed
  /// row's score is set to NaN in its block, which the selector never
  /// keeps.
  Status SearchInto(const float* query, int exclude_id,
                    const UpsertBuffer* shadow,
                    TopKAccumulator* acc) const override;

  size_t size() const override { return ids_.size(); }
  size_t dim() const override { return rows_.dim(); }
  Metric metric() const override { return metric_; }
  quant::Storage storage() const override { return rows_.storage(); }
  IndexMemoryStats memory_stats() const override;

  void SerializeTo(std::string* out) const override;
  Status DeserializeFrom(std::string_view in) override;

 private:
  Metric metric_;
  quant::RowStore rows_;                  // slot-major, normalised if cosine
  std::vector<int> ids_;                  // slot -> external id
  std::unordered_map<int, size_t> slot_;  // external id -> slot
};

}  // namespace sccf::index

#endif  // SCCF_INDEX_BRUTE_FORCE_INDEX_H_
