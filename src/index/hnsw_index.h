#ifndef SCCF_INDEX_HNSW_INDEX_H_
#define SCCF_INDEX_HNSW_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "index/vector_index.h"
#include "quant/row_store.h"
#include "util/random.h"

namespace sccf::index {

/// Hierarchical Navigable Small World graph (Malkov & Yashunin) over
/// inner-product / cosine similarity. Sub-linear query time makes it the
/// "identify neighbors in real time" workhorse of the SCCF user-based
/// component at catalog scale (paper Table III).
///
/// Streaming semantics: Add() with an existing id tombstones the old node
/// (it keeps routing but is filtered from results) and inserts a fresh
/// node; Remove() tombstones outright. Tombstones are *bounded*: once
/// dead nodes exceed Options::max_tombstone_ratio of the graph (and the
/// graph is past a small floor), the whole graph is rebuilt from the live
/// nodes — levels redrawn from the member Rng, stored rows moved, not
/// re-encoded — so memory and scan cost cannot grow without bound under
/// churn. The rebuild is deterministic given the Rng state, which is
/// serialized, so recovered-vs-twin bit-exactness survives rebuilds.
///
/// Storage: node rows live in one quant::RowStore indexed by internal node
/// id (fp32, or SQ8 codes with per-row scale/offset). Every similarity —
/// construction beams included — goes through the store's single-row
/// score, and a stored node that becomes the query side (inserts, pruning)
/// queries with its row as stored (decoded in sq8 mode), so construction
/// space equals query space.
///
/// Thread-safety: concurrent Search calls are safe (the visited set and
/// both beam heaps are locals); Add, Remove, and set_ef_search require
/// exclusive access — Add rewires neighbor lists, grows nodes_, consumes
/// the member Rng, and may rebuild. See the contract in vector_index.h.
class HnswIndex : public VectorIndex {
 public:
  struct Options {
    size_t m = 16;                ///< max neighbors per node above level 0
    size_t ef_construction = 100; ///< beam width during insertion
    size_t ef_search = 64;        ///< beam width during queries
    uint64_t seed = 42;
    /// Rebuild the graph from live nodes when tombstoned nodes exceed
    /// this fraction of all resident nodes (checked after every Add and
    /// Remove, once the graph has at least 64 nodes). <= 0 disables
    /// rebuilds (tombstones then grow without bound — pre-quant
    /// behavior, kept reachable for comparison benchmarks).
    double max_tombstone_ratio = 0.25;
  };

  HnswIndex(size_t dim, Metric metric, Options options,
            quant::Storage storage = quant::Storage::kFp32);

  Status Add(int id, const float* vec) override;
  Status Remove(int id) override;
  Status SearchInto(const float* query, int exclude_id,
                    const UpsertBuffer* shadow,
                    TopKAccumulator* acc) const override;

  size_t size() const override { return live_.size(); }
  size_t dim() const override { return rows_.dim(); }
  Metric metric() const override { return metric_; }
  quant::Storage storage() const override { return rows_.storage(); }
  IndexMemoryStats memory_stats() const override;

  void set_ef_search(size_t ef) { options_.ef_search = ef; }

  void SerializeTo(std::string* out) const override;
  Status DeserializeFrom(std::string_view in) override;

  /// Internal nodes including tombstones (diagnostics).
  size_t num_graph_nodes() const { return nodes_.size(); }

 private:
  struct GraphNode {
    int external_id = -1;
    bool deleted = false;
    int level = 0;
    std::vector<std::vector<int>> neighbors;   // per level
  };
  using Query = quant::RowStore::Query;

  int RandomLevel();
  /// Greedy single-entry descent at `level`, maximising similarity.
  int GreedyClosest(const Query& q, int entry, int level) const;
  /// Beam search at `level`; returns up to `ef` candidates sorted by
  /// descending similarity.
  std::vector<Neighbor> SearchLayer(const Query& q, int entry, size_t ef,
                                    int level) const;
  /// Keeps the `max_m` most similar neighbors of node `n` at `level`.
  void PruneNeighbors(int n, int level, size_t max_m);
  /// Draws a level for a new node, appends it to the graph, registers it
  /// live, and wires its beam-searched edges. Its row must already be the
  /// next row of rows_.
  void InsertNode(int external_id);
  /// Rebuilds the graph from live nodes (internal-id order) when the
  /// tombstone ratio bound is exceeded.
  void MaybeRebuild();

  Metric metric_;
  Options options_;
  Rng rng_;
  quant::RowStore rows_;               // internal node id -> row
  std::vector<GraphNode> nodes_;
  std::unordered_map<int, int> live_;  // external id -> internal node
  int entry_point_ = -1;
  int max_level_ = -1;
};

}  // namespace sccf::index

#endif  // SCCF_INDEX_HNSW_INDEX_H_
