#ifndef SCCF_CORE_REALTIME_H_
#define SCCF_CORE_REALTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/candidates.h"
#include "core/user_based.h"
#include "data/split.h"
#include "models/recommender.h"
#include "util/status.h"

namespace sccf::core {

class IngestSink;

/// The streaming serving loop of the SCCF user-based component
/// (paper Sec. III-C2 and Table III): when a user interacts with a new
/// item, the service re-infers her representation with one forward pass of
/// the inductive UI model, refreshes the vector index, and can immediately
/// identify the new neighborhood — no retraining, unlike transductive
/// user-based baselines.
///
/// Scale-out design: users are hash-partitioned across `num_shards`
/// shards. Each shard owns its own VectorIndex, history/vote maps, and a
/// std::shared_mutex, so concurrent OnInteraction calls for users in
/// different shards never contend. Queries (Neighbors /
/// RecommendUserBased) fan a per-shard top-k search out under shared
/// (read) locks — one shard at a time, never holding two locks — into one
/// exact top-k selector (index::TopKAccumulator), passing each shard the
/// k-th score found so far so it can skip rows that cannot enter.
///
/// Thread-safety contract:
///  - Bootstrap must be called exactly once and must complete (its return
///    establishes the happens-before edge) before any concurrent use.
///  - After that, any mix of OnInteraction / Neighbors /
///    RecommendUserBased / History / num_users calls from any threads is
///    safe. Per-user interaction order is serialized by the user's shard
///    lock; cross-shard reads see each shard's latest committed state
///    (per-query snapshot, not a global one).
///  - With num_shards = 1 the service reproduces the pre-sharding
///    single-index implementation bit-identically (pinned by
///    RealTimeTest.ShardedMatchesSingleShardExactly).
///
/// Lock-ordering contract (holds with the background compaction thread
/// and concurrent OnInteractionBatch callers):
///  - Every thread — ingest, query, Compact, and the background sweep —
///    holds AT MOST ONE shard lock at any moment, so there is no
///    shard-lock ordering to violate and no deadlock by construction.
///  - The background thread's control mutex (`bg_mu_`, guarding stop
///    flag + condition variable) is never held while a shard lock is
///    held: the sweep releases it before touching any shard, and
///    re-acquires it only after the last shard lock is released.
///  - Start/StopBackgroundCompaction and the destructor take `bg_mu_`
///    (and Stop joins the thread) while holding no shard lock; they must
///    be called from one thread at a time, like Bootstrap.
///  - Buffer drains triggered by age (write path, query path, background
///    sweep) all run under the owning shard's exclusive lock through the
///    same UpsertBuffer::DrainTo path as Compact(), so any interleaving
///    of them with concurrent ingest/queries is bit-exact for the
///    brute-force backend (pinned by
///    EngineTest.BackgroundCompactionIsBitExact and the TSan stress
///    suite).
class RealTimeService {
 public:
  struct Options {
    size_t beta = 100;
    /// Recent items used to infer the query embedding (15 in the paper).
    size_t infer_window = 15;
    /// Recent items each user contributes as votes (15 in the paper).
    size_t vote_window = 15;
    /// User partitions, each with its own index and lock. 0 resolves to
    /// std::thread::hardware_concurrency() at Bootstrap; 1 reproduces the
    /// pre-sharding single-index service exactly.
    size_t num_shards = 0;
    /// Index-refresh batching (the buffered-upsert contract in
    /// index/vector_index.h): re-inferred embeddings are staged in a
    /// per-shard write buffer and flushed to the backend index only once
    /// the buffer holds this many users — so a hot user re-updated k
    /// times between flushes costs one Add (one HNSW tombstone/reinsert,
    /// one IVF reassignment) instead of k. Queries merge the buffer with
    /// index results, so freshness is unaffected; the trade-off is a
    /// linear scan of <= compaction_threshold staged rows per shard per
    /// query. <= 1 writes through on every update (the pre-buffering
    /// behavior, bit-identical to it). The count threshold is one of
    /// several compaction triggers — see compaction_interval_ms and
    /// background_compaction below for the wall-clock ones.
    size_t compaction_threshold = 1;
    /// Wall-clock bound on how long a staged embedding may sit in a
    /// shard's write buffer (milliseconds; 0 disables the age policy).
    /// When > 0, any write or query touching a shard whose oldest staged
    /// row is older than this drains that shard's buffer first — the
    /// write path drains under the write lock it already holds, the
    /// query path try-locks the write lock before searching (and on
    /// contention serves the merged staged view, leaving the drain to
    /// whoever holds the lock, the next toucher, or the background
    /// sweep — no reader herd on the exclusive lock). Draining
    /// is the same bit-exact path Compact() uses, so results are
    /// unaffected; the policy only bounds the query-side buffer scan and
    /// the age of deferred index churn. A shard nobody writes to or
    /// queries still holds its rows — enable background_compaction to
    /// bound that case too.
    int64_t compaction_interval_ms = 0;
    /// Owns a background compaction thread: started when Bootstrap
    /// returns, stopped by StopBackgroundCompaction() or the destructor.
    /// The thread sweeps the shards on a cadence (compaction_interval_ms
    /// / 2, clamped to [1ms, interval]; 10ms when the interval is 0),
    /// takes a shard's write lock only when its buffer is non-empty and
    /// overdue (any non-empty buffer when the interval is 0), and drains
    /// via the bit-exact Compact() path — so a cold shard's staged rows
    /// reach the backend index within ~1.5 intervals without any further
    /// ingest or queries. See the lock-ordering contract on the class.
    bool background_compaction = false;
    IndexKind index_kind = IndexKind::kBruteForce;
    index::Metric metric = index::Metric::kCosine;
    /// Embedding storage mode for every shard index and write buffer.
    /// kSq8 stores rows as int8 codes + per-row scale/offset (dim + 8
    /// bytes instead of 4*dim), scored directly on the codes via the int8
    /// SIMD kernels. Snapshots embed the mode; restore validates it.
    quant::Storage storage = quant::Storage::kFp32;
    /// Per-shard IVF options. nlist is clamped to the shard's bootstrap
    /// population (hash partitioning makes shard sizes data-dependent, so
    /// a fixed nlist could exceed a small shard); empty shards train a
    /// one-centroid quantizer so cold-start users can still be added.
    index::IvfFlatIndex::Options ivf;
    index::HnswIndex::Options hnsw;
    /// Durability knobs, carried here because Engine::Options aliases
    /// this struct; the service itself never reads them — the online
    /// engine hands them to the persist layer (which sits ABOVE core in
    /// the DAG). Non-empty `recover_dir` makes Engine::Bootstrap recover
    /// from that directory (snapshot + journal tail, created if absent)
    /// and journal every subsequent ingest into it.
    std::string recover_dir;
    /// fsync the journal after every appended record. Off, a SIGKILL'd
    /// *process* loses nothing (the kernel already has the bytes) but a
    /// machine crash can lose the un-synced tail; on, every ingest batch
    /// pays a disk flush per touched shard. See docs/OPERATIONS.md.
    bool journal_fsync = false;
  };

  /// One user's state snapshot to load at startup.
  struct UserState {
    int user = -1;
    std::vector<int> history;  // chronological
  };

  /// One interaction in an ingest batch. `ts` is carried for callers that
  /// batch by wall-clock window (the service itself orders events by
  /// batch position, which the caller must keep chronological per user).
  /// All three fields must be non-negative — OnInteractionBatch rejects
  /// the whole batch atomically (no partial state) otherwise, so negative
  /// ids from untrusted sources can never reach the shard hash.
  struct Event {
    int user = -1;
    int item = -1;
    int64_t ts = 0;
  };

  /// Per-interaction latency breakdown reported by OnInteraction — the
  /// columns of Table III.
  struct UpdateTiming {
    double infer_ms = 0.0;     // user-representation inference
    double index_ms = 0.0;     // vector-index refresh
    double identify_ms = 0.0;  // neighborhood search (all-shard fan-out)
    double total_ms() const { return infer_ms + index_ms + identify_ms; }
  };

  /// `model` must be fitted and outlive the service. Its const inference
  /// methods are called concurrently from every serving thread.
  RealTimeService(const models::InductiveUiModel& model, Options options);

  /// Stops the background compaction thread (if running). Callers must
  /// ensure no other thread is still inside a serving call, per the
  /// usual destruction rules.
  ~RealTimeService();

  RealTimeService(const RealTimeService&) = delete;
  RealTimeService& operator=(const RealTimeService&) = delete;

  /// Loads initial user states and builds the per-shard indexes in
  /// parallel on ThreadPool::Global() (training each shard's coarse
  /// quantizer first for IVF). Must be called exactly once, from one
  /// thread, before any concurrent use; must not be called from inside a
  /// pool worker (it uses ParallelFor).
  Status Bootstrap(const std::vector<UserState>& users);

  /// Convenience: bootstrap from every user's training-prefix history.
  Status BootstrapFromSplit(const data::LeaveOneOutSplit& split);

  /// Ingests one interaction: appends to the user's history, re-infers the
  /// embedding, refreshes the shard index (all under the shard's write
  /// lock), and identifies the fresh neighborhood via the all-shard
  /// fan-out. Unknown users are created on the fly (cold start).
  /// Thread-safe; concurrent callers on different shards run in parallel.
  /// Implemented as OnInteractionBatch over a single event — pinned
  /// bit-identical to the historical per-event path by
  /// EngineTest.SingleEventBatchMatchesOnInteraction.
  StatusOr<UpdateTiming> OnInteraction(int user, int item);

  /// What one ingest batch did, observed under the locks the batch
  /// already held (so callers don't re-sweep shards for bookkeeping).
  struct BatchResult {
    /// One entry per event; a user updated several times in the batch
    /// carries the infer/index/identify cost on its *last* event
    /// (earlier ones read 0).
    std::vector<UpdateTiming> timings;
    size_t users_touched = 0;     ///< distinct users in the batch
    size_t cold_start_users = 0;  ///< users created by the batch
    /// Upserts still staged in the shards this batch touched, after
    /// the batch (always 0 when compaction_threshold <= 1).
    size_t pending_upserts = 0;
  };

  /// Batched ingest, the amortized write path: events are grouped by
  /// shard, each shard's write lock is taken once per batch, histories
  /// and vote lists absorb every event, and only each touched user's
  /// *final* embedding is re-inferred and pushed toward the index —
  /// staged through the shard's write buffer when
  /// Options::compaction_threshold > 1. With `identify` false the
  /// post-update neighborhood search is skipped (pure ingest, e.g.
  /// offline replay).
  ///
  /// The whole batch is validated before any mutation, so an
  /// InvalidArgument return means no state changed. (With an IngestSink
  /// attached, an IoError from the sink aborts the failing shard group
  /// before it mutates anything, but shard groups the batch already
  /// committed stay applied — journal and memory never disagree, the
  /// batch is just cut short.) Events must be
  /// chronological per user within the batch. Thread-safe; concurrent
  /// batches contend only on the shards they touch, one at a time (no
  /// deadlock: at most one lock is held at any moment).
  StatusOr<BatchResult> OnInteractionBatch(std::span<const Event> events,
                                           bool identify = true);

  /// Flushes every shard's write buffer into its backend index (one
  /// shard write lock at a time). After Compact, pending_upserts() == 0
  /// and query results are bit-identical to a write-through service that
  /// applied each user's final embedding. Thread-safe; safe to call
  /// concurrently with the background compaction thread (both drain
  /// under the shard's exclusive lock).
  Status Compact();

  /// Starts the background compaction thread (see
  /// Options::background_compaction — Bootstrap calls this when that
  /// flag is set). FailedPrecondition before Bootstrap; OK and a no-op
  /// if the thread is already running. Call from one thread at a time.
  Status StartBackgroundCompaction();

  /// Stops and joins the background compaction thread; no-op if it is
  /// not running. Safe to call concurrently with serving traffic (it
  /// touches no shard lock while joining); call from one thread at a
  /// time. The destructor calls this.
  void StopBackgroundCompaction();

  /// True while the background compaction thread is running.
  bool background_compaction_running() const;

  /// Total embeddings currently staged across all shard write buffers.
  size_t pending_upserts() const;

  /// Current neighborhood of `user` (Eq. 11): per-shard top-beta searches
  /// (each merging the shard's staged upserts) merged into the global
  /// top-beta. `beta` 0 uses Options::beta; an effective beta of 0 is
  /// InvalidArgument. Thread-safe (read locks only).
  StatusOr<std::vector<index::Neighbor>> Neighbors(int user,
                                                   size_t beta = 0) const;

  /// Eq. 12 user-based candidate list from the current snapshot.
  /// `n` must be positive (InvalidArgument otherwise); `beta` 0 uses
  /// Options::beta. With `exclude_seen` false the user's own history is
  /// not masked out of the list. Thread-safe (read locks only).
  StatusOr<CandidateList> RecommendUserBased(int user, size_t n,
                                             size_t beta = 0,
                                             bool exclude_seen = true) const;

  /// Snapshot copy of the items user `user` currently contributes as
  /// votes (the vote_window tail of their history, deduplicated).
  /// NotFound for users with no votes yet. Thread-safe.
  StatusOr<std::vector<int>> VoteItems(int user) const;

  /// Snapshot copy of the user's history. NotFound for unknown users,
  /// FailedPrecondition before Bootstrap. (Returning by value is the
  /// point: a reference into shard state would dangle on rehash and race
  /// with concurrent ingest.)
  StatusOr<std::vector<int>> History(int user) const;

  size_t num_users() const;

  // ---------------------------------------------------------- persistence
  // The hooks the persist layer builds on. The service stays ignorant of
  // files and formats: it write-ahead-logs through an abstract IngestSink,
  // serializes/restores one shard's state as opaque bytes, and replays
  // journal records. src/persist owns framing, checksums, and recovery
  // orchestration (DAG: core <- persist, never the reverse).

  /// Attaches (nullptr detaches) the write-ahead ingest sink. Every
  /// subsequent ingest appends each shard group to the sink — under that
  /// shard's exclusive lock, BEFORE any mutation — tagged with the
  /// shard's next sequence number. Must be called while no concurrent
  /// ingest runs (same external-sync rule as Bootstrap); the sink must
  /// outlive its attachment.
  void set_ingest_sink(IngestSink* sink) { sink_ = sink; }

  /// Appends shard `s`'s complete serialized state to `*out` — histories,
  /// vote lists, the backend index blob (bit-exact, see
  /// VectorIndex::SerializeTo), staged-but-undrained upserts, and the
  /// shard's journal sequence number — all read under one shared-lock
  /// hold, so the payload is a consistent point-in-time cut: it reflects
  /// exactly the ingest batches with seq <= the embedded sequence number.
  /// Takes only that one shard lock (per the lock-ordering contract), so
  /// serving traffic on other shards is unaffected.
  Status ExportShard(size_t s, std::string* out) const;

  /// Replaces shard `s`'s state with an ExportShard payload (produced by
  /// a service with identical Options and shard count). Validates the
  /// whole payload before committing — on error the shard is unchanged.
  /// Pre: Bootstrap has run; no concurrent use (recovery-time only).
  Status RestoreShard(size_t s, std::string_view payload);

  /// Replays one journaled ingest record against shard `s`. Records with
  /// seq <= the shard's current sequence number are skipped (already
  /// covered by the restored snapshot); the next expected record must
  /// carry exactly seq+1 (a gap means journal corruption -> IoError).
  /// Applies the same mutations OnInteractionBatch's per-shard pass
  /// applies — histories, vote lists, embedding refresh, index staging —
  /// without re-journaling and without the identify fan-out (identify
  /// never mutates state), so a snapshot + replayed tail is bit-identical
  /// to the uninterrupted run. Pre: Bootstrap has run; no concurrent use.
  Status ApplyJournalRecord(size_t s, uint64_t seq,
                            std::span<const Event> events);

  /// Shard `s`'s journal sequence number: the seq of the last ingest
  /// batch group applied to it (0 if none since Bootstrap/restore).
  uint64_t ShardJournalSeq(size_t s) const;

  /// The options the service was constructed with (the persist layer
  /// stamps index kind / metric into snapshot metadata from here).
  const Options& options() const { return options_; }
  /// The model's embedding dimension (the width of every indexed row).
  size_t embedding_dim() const { return model_->embedding_dim(); }

  /// Per-shard memory/occupancy accounting, read under one shared lock
  /// per shard (see ShardStatsSnapshot).
  struct ShardStats {
    size_t users = 0;            ///< users resident in the shard
    size_t index_rows = 0;       ///< live rows in the backend index
    size_t embedding_bytes = 0;  ///< fp32 row storage held by the index
    size_t code_bytes = 0;       ///< SQ8 codes + per-row params
    size_t tombstones = 0;       ///< dead HNSW nodes still resident
    size_t staged_rows = 0;      ///< upserts awaiting compaction
  };

  /// One ShardStats per shard, each read under that shard's shared lock
  /// (one lock at a time, per the lock-ordering contract) — a per-shard
  /// consistent cut, not a global one. Thread-safe after Bootstrap.
  std::vector<ShardStats> ShardStatsSnapshot() const;

  /// Shard topology (0 shards before Bootstrap).
  size_t num_shards() const { return shards_.size(); }
  /// Which shard owns `user` — a fixed hash partition, stable across
  /// platforms and process runs. Pre: Bootstrap has run.
  size_t ShardOf(int user) const;
  /// Per-shard user counts (diagnostics / examples).
  std::vector<size_t> ShardSizes() const;

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::unique_ptr<index::VectorIndex> index;
    /// Staged upserts awaiting compaction (see Options::
    /// compaction_threshold); guarded by `mu` like the index it shadows.
    std::unique_ptr<index::UpsertBuffer> pending;
    /// steady_clock nanoseconds when the *oldest* currently-staged row
    /// entered `pending`; 0 when the buffer is empty. Written only under
    /// an exclusive hold of `mu` (stage-into-empty sets it, every drain
    /// clears it); read lock-free by the query path and the background
    /// sweep to decide whether taking the write lock is worth it, so it
    /// is atomic (a stale read only defers or wastes one drain attempt).
    mutable std::atomic<int64_t> staged_since_ns{0};
    std::unordered_map<int, std::vector<int>> histories;
    std::unordered_map<int, std::vector<int>> vote_items;
    /// Monotonic per-shard ingest sequence number, guarded by `mu`.
    /// Incremented once per applied batch group (after a successful sink
    /// append, when a sink is attached); snapshots embed it and journal
    /// replay filters on it.
    uint64_t journal_seq = 0;
  };

  void InferWindowEmbedding(const std::vector<int>& history,
                            float* out) const;
  std::vector<int> VoteItems(const std::vector<int>& history) const;
  std::unique_ptr<index::VectorIndex> MakeShardIndex(
      size_t shard_population) const;
  /// Builds one shard's maps and index from its bootstrap users. Runs on
  /// the global pool; touches only `shard` (no locking needed before the
  /// service is published).
  Status BuildShard(Shard* shard,
                    const std::vector<const UserState*>& users) const;
  /// One touched user's refresh, under `shard`'s already-held write
  /// lock: re-infers the final embedding (into `emb`, d floats), stages
  /// or applies the index update per compaction_threshold, snapshots
  /// the vote list, and records infer/index timings.
  Status RefreshTouchedUser(Shard& shard, int user, float* emb,
                            UpdateTiming* timing);
  /// Offers one shard's candidates for the top-k to `acc` under the
  /// shard's shared lock: the backend's Search hits at or above
  /// acc->Floor() (staged ids shadowed) and the shard's write buffer.
  Status SearchShard(const Shard& shard, const float* query, size_t k,
                     int exclude_user, index::TopKAccumulator* acc) const;
  /// Top-k over every shard (shared lock per shard, one at a time), all
  /// fed into one selector. `exclude_user` only matches in its own shard.
  StatusOr<std::vector<index::Neighbor>> SearchAllShards(
      const float* query, size_t k, int exclude_user) const;
  /// Drains `shard.pending` into its index and clears the age stamp.
  /// Pre: `shard.mu` is held exclusively by the caller. Const because
  /// the age policy must be able to compact from logically-const query
  /// paths (the drain is a physical, result-preserving mutation).
  Status DrainShardLocked(const Shard& shard) const;
  /// True if the shard has staged rows older than the compaction
  /// interval (always false when the interval is 0). Lock-free; reads
  /// the clock only after the interval/empty early-outs, so disabled or
  /// clean shards cost no clock_gettime on the hot paths.
  bool ShardOverdue(const Shard& shard) const;
  /// The background sweep body: wait-on-cv-with-timeout loop around
  /// SweepShardsOnce until StopBackgroundCompaction flips bg_stop_.
  void BackgroundCompactionLoop();
  /// One background pass over every shard: drain the non-empty buffers
  /// that are overdue (any non-empty buffer when the interval is 0),
  /// one shard write lock at a time, never while holding bg_mu_.
  void SweepShardsOnce() const;

  /// Journals one shard group's events before applying them (see
  /// set_ingest_sink). Called with `shard.mu` held exclusively; bumps
  /// `shard.journal_seq` only after the sink accepts the record, so a
  /// failed append leaves both the shard and the sequence untouched.
  Status JournalShardGroupLocked(size_t shard_idx, Shard& shard,
                                 std::span<const Event> events);

  const models::InductiveUiModel* model_;
  Options options_;
  bool bootstrapped_ = false;
  IngestSink* sink_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Background compaction thread state. `bg_mu_` guards `bg_stop_` and
  /// pairs with `bg_cv_` for the sweep cadence; it is never held while a
  /// shard lock is held (see the lock-ordering contract above).
  std::thread bg_thread_;
  mutable std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  std::atomic<bool> bg_running_{false};
};

/// Write-ahead sink for ingest events — the seam between the service and
/// the persistence journal. OnInteractionBatch calls Append once per
/// (batch, shard) group, under that shard's exclusive lock and BEFORE any
/// mutation, with the shard's next sequence number; an Append error
/// aborts the group with no state change, so the journal can never lag
/// the in-memory state. Implementations must tolerate concurrent Append
/// calls for different shards (the service holds at most one shard lock,
/// so a sink-internal mutex nests strictly inside shard locks) and must
/// never call back into the service.
class IngestSink {
 public:
  virtual ~IngestSink() = default;
  virtual Status Append(size_t shard, uint64_t seq,
                        std::span<const RealTimeService::Event> events) = 0;
};

}  // namespace sccf::core

#endif  // SCCF_CORE_REALTIME_H_
