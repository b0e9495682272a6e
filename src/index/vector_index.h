#ifndef SCCF_INDEX_VECTOR_INDEX_H_
#define SCCF_INDEX_VECTOR_INDEX_H_

#include <cstddef>
#include <limits>
#include <unordered_map>
#include <vector>

#include "quant/row_store.h"
#include "quant/sq8.h"
#include "util/status.h"

namespace sccf::index {

/// Similarity metric for vector search. Cosine is implemented by storing
/// L2-normalised copies, after which inner product equals cosine.
enum class Metric { kInnerProduct, kCosine };

/// One search hit: external id plus similarity score (higher is better).
struct Neighbor {
  int id = -1;
  float score = 0.0f;
};

/// Bytes and structural debt a backend currently holds, split by
/// representation so operators can see what a storage-mode switch buys.
/// embedding_bytes counts fp32 row storage (including IVF centroids and
/// HNSW tombstoned nodes — they occupy RAM until a rebuild). code_bytes
/// counts SQ8 codes plus their per-row scale/offset params. tombstones is
/// the count of dead-but-resident entries (only HNSW accrues them).
struct IndexMemoryStats {
  size_t embedding_bytes = 0;
  size_t code_bytes = 0;
  size_t tombstones = 0;
};

/// Dynamic nearest-neighbor index over float vectors, the substrate the
/// SCCF user-based component queries to identify each user's neighborhood
/// in real time (paper Sec. III-C; the role Faiss plays in the original
/// system). `Add` with an existing id replaces the stored vector, which is
/// the streaming-update path used when a user's embedding is re-inferred
/// after a new interaction.
///
/// Concurrency contract (audited for all three backends — BruteForce,
/// HNSW, IVF-Flat): implementations are NOT internally synchronized.
///
///  - Concurrent const calls (`Search`, `size`, `dim`, `metric`) are
///    safe with each other: every backend keeps its query scratch
///    (normalised query copies, visited sets, accumulators) in locals,
///    with no `mutable` members.
///  - Mutations — `Add`, `IvfFlatIndex::Train`, and the non-const tuning
///    setters (`HnswIndex::set_ef_search`, `IvfFlatIndex::set_nprobe`) —
///    require exclusive access: no other call, const or not, may run
///    concurrently with them. HNSW's `Add` additionally draws from the
///    index's own Rng, so even "independent" inserts must be serialized.
///  - Callers own the synchronization. The sharded
///    `core::RealTimeService` wraps each shard's index in a
///    `std::shared_mutex` (shared for Search, exclusive for Add), which
///    is the intended usage pattern.
///
/// Buffered-upsert contract: because `Add` with an existing id replaces
/// the stored vector, a caller may defer a burst of upserts in a side
/// buffer and apply only each id's *final* vector at a compaction point —
/// the index state after the deferred `Add`s is identical to applying
/// every intermediate `Add`, minus the per-call structural churn (HNSW
/// tombstone + reinsert, IVF posting reassignment, brute-force row
/// rewrites). Queries issued between compactions must merge the buffer's
/// contents with `Search` results themselves (staged ids shadow their
/// stale indexed entry; staged-but-never-indexed ids are cold-start
/// inserts). When a compaction point fires is the *caller's* policy, not
/// this contract's: `core::RealTimeService` applies the discipline per
/// shard and drains on any of a count threshold
/// (`Options::compaction_threshold`), a wall-clock age bound
/// (`Options::compaction_interval_ms`, checked on its ingest and query
/// paths), a background compaction sweep
/// (`Options::background_compaction`), or an explicit `Compact()` — all
/// equivalent by this contract, because a drain applies the same final
/// vectors regardless of what triggered it. `UpsertBuffer` below
/// implements exactly this staging discipline.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Inserts or replaces the vector for `id`. Pre: id >= 0.
  virtual Status Add(int id, const float* vec) = 0;

  /// Removes `id` from the index; NotFound when absent. Removal is a
  /// *true* delete for brute-force and IVF (the row is gone). HNSW
  /// tombstones the node to preserve graph routing, then rebuilds the
  /// whole graph once tombstones exceed Options::max_tombstone_ratio —
  /// so resident dead nodes are bounded, not monotone. Requires
  /// exclusive access like Add.
  virtual Status Remove(int id) = 0;

  /// Top-k ids by similarity to `query`, descending. `exclude_id` (if >= 0)
  /// is never returned — the paper excludes the user herself from N_u.
  /// Returns fewer than k results when the index is smaller. Rows scoring
  /// below `floor` are never returned either: a caller merging several
  /// searches passes the k-th score it already holds, so a later search
  /// skips rows that cannot enter the merged top-k.
  virtual StatusOr<std::vector<Neighbor>> Search(
      const float* query, size_t k, int exclude_id = -1,
      float floor = -std::numeric_limits<float>::infinity()) const = 0;

  virtual size_t size() const = 0;
  virtual size_t dim() const = 0;
  virtual Metric metric() const = 0;

  /// Which representation rows are held in (fixed at construction).
  virtual quant::Storage storage() const = 0;

  /// Current resident footprint; safe concurrently with Search (reads
  /// container sizes only). See IndexMemoryStats.
  virtual IndexMemoryStats memory_stats() const = 0;

  /// Appends the backend's complete internal state to `*out` — stored
  /// rows, graph topology including tombstones, centroids, and any
  /// internal RNG — so that DeserializeFrom on a freshly constructed
  /// index with identical options reproduces it *bit-exactly*: every
  /// subsequent Add and Search behaves as if the index had never been
  /// serialized. The persistence layer owns outer framing and checksums;
  /// this payload still self-describes enough (backend tag, dim) to
  /// reject a blob from the wrong backend or geometry.
  virtual void SerializeTo(std::string* out) const = 0;

  /// Restores state written by SerializeTo into this index. The index
  /// must have been constructed with the same backend, dim, metric, and
  /// options as the serializing one. Structure is validated before any
  /// member is mutated: on error the index is unchanged.
  virtual Status DeserializeFrom(std::string_view in) = 0;
};

/// The one order of every top-k result: descending score, ties broken by
/// ascending id. Written without short-circuits so selection loops that
/// run it on every candidate compile it without a data-dependent branch.
inline bool NeighborBefore(const Neighbor& a, const Neighbor& b) {
  return (a.score > b.score) | ((a.score == b.score) & (a.id < b.id));
}

/// Exact top-k selection: the k best candidates by NeighborBefore among
/// those offered, whatever order they arrive in. Every top-k in the repo
/// goes through it: the brute-force scan, HNSW, IVF, the staged-buffer
/// merge, the cross-shard fan-out and the Eq. 12 vote.
///
/// Candidates scoring at or above a running threshold are appended to a
/// buffer; once it holds 2k of them it is cut back to the k best by a
/// branchless quickselect and the threshold rises to the k-th score. A
/// block offer compares each score with the threshold and appends without
/// a data-dependent branch; a group of 16 scores all below it is skipped
/// after the compares. Take finishes with one sort. The threshold admits
/// scores equal to it, since a tie with a smaller id still beats the
/// current k-th. NaN scores are never kept.
class TopKAccumulator {
 public:
  /// Candidates scoring below `floor` are never kept.
  explicit TopKAccumulator(
      size_t k, float floor = -std::numeric_limits<float>::infinity());

  void Offer(int id, float score) {
    if (score >= threshold_) Push(id, score);
  }

  /// Offers (ids[j], scores[j]) for j in [0, n), skipping `exclude_id`.
  void OfferBlock(const int* ids, const float* scores, size_t n,
                  int exclude_id = -1);

  /// Offers (first_id + j, scores[j]) for j in [0, n).
  void OfferDense(int first_id, const float* scores, size_t n);

  /// The lowest score that can still be kept: the k-th best score once k
  /// candidates are held, otherwise the construction floor. A caller may
  /// pass it on as the floor of another search feeding the same result.
  float Floor();

  /// The kept candidates in NeighborBefore order. Call once: the
  /// accumulator is spent afterwards.
  std::vector<Neighbor> Take();

 private:
  void Push(int id, float score);
  /// Ensures room for `len` more appends, cutting back to the k best first
  /// once 2k are held.
  void MakeRoom(size_t len);
  /// Keeps the k best of the n_ held (n_ >= k) and raises the threshold to
  /// the k-th score.
  void Compact();
  template <typename IdAt>
  void AppendAtOrAbove(IdAt id_at, const float* scores, size_t n,
                       int exclude_id);

  size_t k_;
  float threshold_;
  size_t n_ = 0;               // candidates held in buf_[0, n_)
  std::vector<Neighbor> buf_;  // buf_[n_, size) is write space
};

/// Insertion-ordered staging area for deferred index upserts — the write
/// half of the buffered-upsert contract documented on VectorIndex. Callers
/// stage (id, vector) pairs with Put (re-staging an id overwrites its row
/// in place, so only the final vector survives to the flush), answer
/// queries by combining OfferTo with the backend's Search results, and
/// flush with DrainTo at their compaction point.
///
/// Each staged row is kept twice. The raw copy is exactly the bytes a
/// direct Add would have received: DrainTo hands it to the backend (so a
/// drain is bit-identical to having called Add with each id's final
/// vector) and shard snapshots persist it, in plain fp32 whatever the
/// storage mode. The second copy sits in a quant::RowStore encoded
/// exactly as the backend stores rows (normalised for cosine, then
/// quantized in sq8 mode), and OfferTo scores it with the same single-row
/// kernel HNSW and IVF use. A staged row's merged score therefore matches
/// its post-drain indexed score up to the kernel's rounding: the
/// brute-force backend scores through the batched kernel, so staged and
/// compacted queries return the same ids with scores within 1e-5, in both
/// storage modes (EngineTest.Sq8StagedMatchesCompacted and
/// EngineTest.StagedUpsertsAreQueryFreshBeforeCompaction pin this).
///
/// Not internally synchronized — same contract as VectorIndex; the owner
/// guards it with the same lock as the index it stages for.
class UpsertBuffer {
 public:
  UpsertBuffer(size_t dim, Metric metric,
               quant::Storage storage = quant::Storage::kFp32)
      : metric_(metric), rows_(dim, storage, metric == Metric::kCosine) {}

  /// Stages a copy of `vec` (dim floats) for `id`. Pre: id >= 0.
  void Put(int id, const float* vec);

  /// True if `id` has a staged (not yet drained) vector. A staged id's
  /// indexed entry, if any, is stale and must be shadowed at query time.
  bool contains(int id) const { return pos_.find(id) != pos_.end(); }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  size_t dim() const { return rows_.dim(); }
  Metric metric() const { return metric_; }
  quant::Storage storage() const { return rows_.storage(); }
  /// Staged ids in first-Put order (diagnostics / tests / snapshots).
  const std::vector<int>& ids() const { return ids_; }

  /// Raw staged row for ids()[i] — exactly the dim() floats a future
  /// DrainTo would hand the backend. Exposed so shard snapshots can
  /// persist staged-but-undrained upserts verbatim.
  const float* row(size_t i) const { return raw_.data() + i * dim(); }

  /// Scores every staged vector against `query` under the buffer's metric
  /// and offers (id, score) to `acc`, skipping `exclude_id`. Together with
  /// offering the backend's Search hits (minus ids `contains` shadows)
  /// into the same accumulator, this yields the fresh merged top-k.
  void OfferTo(const float* query, int exclude_id,
               TopKAccumulator* acc) const;

  /// Flushes staged vectors into `index` via Add in first-Put order (so
  /// downstream slot / graph-insertion order is deterministic) and clears
  /// the buffer. Returns the first Add error, if any; the buffer is
  /// cleared regardless (staged ids are validated by the caller up front,
  /// so a failed Add is a programming error, not recoverable input).
  Status DrainTo(VectorIndex* index);

 private:
  Metric metric_;
  std::vector<int> ids_;                 // row -> external id
  std::vector<float> raw_;               // ids_.size() x dim, rows as Put
  quant::RowStore rows_;                 // the same rows, backend-encoded
  std::unordered_map<int, size_t> pos_;  // external id -> row
};

}  // namespace sccf::index

#endif  // SCCF_INDEX_VECTOR_INDEX_H_
