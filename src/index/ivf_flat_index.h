#ifndef SCCF_INDEX_IVF_FLAT_INDEX_H_
#define SCCF_INDEX_IVF_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "index/vector_index.h"
#include "quant/row_store.h"
#include "util/random.h"

namespace sccf::index {

/// Inverted-file index with flat (uncompressed) storage, the classic
/// Faiss IVF-Flat design: vectors are bucketed by their nearest k-means
/// centroid; a query scans only the `nprobe` closest buckets.
///
/// Usage: construct, call Train() once with a representative sample, then
/// Add/Search freely. Adding before Train() returns FailedPrecondition.
/// Re-adding an id reassigns it to the (possibly different) current bucket,
/// which is the streaming-user-update path.
///
/// Thread-safety: concurrent Search calls are safe after Train (query
/// scratch is local); Train, Add, and set_nprobe require exclusive access
/// — Add encodes through encoder_, swap-removes list rows and rewrites
/// assignment_ entries that a concurrent scan could be reading. See the
/// contract in vector_index.h.
class IvfFlatIndex : public VectorIndex {
 public:
  struct Options {
    size_t nlist = 64;   ///< number of coarse centroids
    size_t nprobe = 8;   ///< buckets scanned per query
    size_t kmeans_iters = 10;
    uint64_t seed = 42;
  };

  IvfFlatIndex(size_t dim, Metric metric, Options options,
               quant::Storage storage = quant::Storage::kFp32);

  /// Learns the coarse quantizer from `vectors` (n x dim, row-major).
  /// Pre: n >= nlist. Centroids are always fp32, whatever the posting
  /// storage mode — they are nlist rows, not the memory problem.
  Status Train(const std::vector<float>& vectors, size_t n);

  bool trained() const { return trained_; }

  Status Add(int id, const float* vec) override;
  Status Remove(int id) override;
  StatusOr<std::vector<Neighbor>> Search(
      const float* query, size_t k, int exclude_id = -1,
      float floor = -std::numeric_limits<float>::infinity()) const override;

  size_t size() const override { return assignment_.size(); }
  size_t dim() const override { return dim_; }
  Metric metric() const override { return metric_; }
  quant::Storage storage() const override { return encoder_.storage(); }
  IndexMemoryStats memory_stats() const override;

  void set_nprobe(size_t nprobe) { options_.nprobe = nprobe; }

  void SerializeTo(std::string* out) const override;
  Status DeserializeFrom(std::string_view in) override;

 private:
  /// One inverted list: ids[i] is the external id of rows' slot i.
  struct List {
    std::vector<int> ids;
    quant::RowStore rows;
  };

  size_t NearestCentroid(const float* vec) const;
  /// Swap-removes slot `pos` of list `list` and re-points the id moved
  /// into it. The caller erases the removed id's assignment.
  void RemoveFromList(size_t list, size_t pos);

  size_t dim_ = 0;
  Metric metric_;
  Options options_;
  // One-row store that fixes the row encoding: Add encodes into it before
  // the row's list is known, Search prepares queries with it, and every
  // list's store is made EmptyLike it.
  quant::RowStore encoder_;
  bool trained_ = false;
  std::vector<float> centroids_;   // nlist x dim
  std::vector<List> lists_;        // per-centroid rows
  // id -> (list, slot) for O(1) streaming reassignment.
  std::unordered_map<int, std::pair<size_t, size_t>> assignment_;
};

}  // namespace sccf::index

#endif  // SCCF_INDEX_IVF_FLAT_INDEX_H_
