#ifndef SCCF_ONLINE_ENGINE_H_
#define SCCF_ONLINE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/candidates.h"
#include "core/realtime.h"
#include "data/split.h"
#include "models/recommender.h"
#include "persist/recovery.h"
#include "util/status.h"

namespace sccf::online {

/// The unified serving facade of the SCCF deployment loop (paper
/// Sec. III-C2, Table III): every interaction with the system goes
/// through one of four typed request/response pairs —
///
///   IngestRequest     -> IngestResponse      (batched write path)
///   RecommendRequest  -> RecommendResponse   (Eq. 12 candidate list)
///   NeighborsRequest  -> NeighborsResponse   (Eq. 11 neighborhood)
///   HistoryRequest    -> HistoryResponse     (user history snapshot)
///
/// The facade wraps the sharded core::RealTimeService and is the single
/// public serving entry point: examples, the streaming evaluator, and
/// the throughput benches all drive it. The batch-first ingest path is
/// where the amortization lives — a batch takes each touched shard's
/// write lock once, re-infers only each touched user's *final*
/// embedding, and (with Options::compaction_threshold > 1) defers index
/// refreshes through per-shard write buffers that queries transparently
/// merge, so results stay fresh between compactions.
///
/// Compaction policy: staged refreshes leave the buffers through any of
/// four routes, all bit-exact for the brute-force backend — the count
/// threshold (Options::compaction_threshold), the wall-clock age bound
/// (Options::compaction_interval_ms, enforced on the ingest and query
/// paths), the background compaction thread
/// (Options::background_compaction, which also drains shards nobody
/// touches), and explicit Compact().
///
/// Lifecycle: construct, Bootstrap exactly once (this starts the
/// background compaction thread when Options::background_compaction is
/// set), serve, then destroy — the destructor stops and joins the
/// thread. Stop/StartBackgroundCompaction are exposed for explicit
/// control (e.g. quiescing before a checkpoint); both are safe while
/// serving traffic is in flight but must be called from one thread at a
/// time.
///
/// Thread-safety: Bootstrap once from one thread, then any mix of
/// Ingest / Recommend / Neighbors / History / Compact calls from any
/// threads is safe (the service's per-shard lock discipline and the
/// lock-ordering contract; see core/realtime.h).
class Engine {
 public:
  /// Upper bound accepted for RecommendRequest::n and for every
  /// beta_override. Requests arrive from untrusted bytes (the network
  /// protocol layer), and a syntactically valid "RECOMMEND 1 2^62"
  /// would otherwise reach the top-k accumulator as a near-2^62
  /// reserve() — std::length_error on the serving thread. Values above
  /// the cap are InvalidArgument, exactly like non-positive ones; the
  /// cap is far beyond any useful list or neighborhood size.
  static constexpr int64_t kMaxRequestLimit = int64_t{1} << 20;

  using Options = core::RealTimeService::Options;
  using Event = core::RealTimeService::Event;
  using UpdateTiming = core::RealTimeService::UpdateTiming;
  using UserState = core::RealTimeService::UserState;

  /// A batch of interactions to absorb. Events must be chronological per
  /// user within the batch; cold-start users are created on the fly.
  struct IngestRequest {
    std::vector<Event> events;
    /// Run the post-update neighborhood identification for every touched
    /// user (the full Table III loop: infer + index + identify). Disable
    /// for pure ingest (offline replay, warm-up), which skips the
    /// all-shard fan-out search.
    bool identify = true;
  };

  /// Per-event timings plus batch totals. A user updated several times
  /// in one batch carries its (single) infer/index/identify cost on its
  /// last event; earlier events read 0 — sum over the batch for totals,
  /// which the aggregate fields below pre-compute.
  struct IngestResponse {
    std::vector<UpdateTiming> timings;  ///< one entry per request event
    size_t num_events = 0;
    size_t users_touched = 0;     ///< distinct users in the batch
    size_t cold_start_users = 0;  ///< users created by this batch
    double infer_ms = 0.0;        ///< sum of per-user inference cost
    double index_ms = 0.0;        ///< sum of index-refresh/staging cost
    double identify_ms = 0.0;     ///< sum of neighborhood-search cost
    double wall_ms = 0.0;         ///< end-to-end batch wall time
    /// Embeddings staged (not yet compacted) in the shards this batch
    /// touched, observed as the batch released each shard — 0 whenever
    /// compaction_threshold <= 1, and a point-in-time reading when the
    /// age/background compaction policies are on (a drain may land the
    /// moment the shard lock is released). For the all-shard total at
    /// any later point, use Engine::pending_upserts().
    size_t pending_upserts = 0;
  };

  struct RecommendOptions {
    /// Neighborhood size for this request; unset uses Options::beta.
    /// Signed on purpose: requests increasingly arrive from untrusted
    /// sources (the network protocol layer), and an unsigned field would
    /// silently wrap a parsed "-5" into a huge neighborhood instead of
    /// letting validation reject it. Any value <= 0 or above
    /// kMaxRequestLimit is InvalidArgument.
    std::optional<int64_t> beta_override;
    /// Mask the user's own history out of the candidate list (the
    /// paper's protocol). Disable to score already-seen items too.
    bool exclude_seen = true;
  };

  struct RecommendRequest {
    int user = -1;
    /// List length; must be in [1, kMaxRequestLimit]. Signed for the
    /// same reason as RecommendOptions::beta_override — a negative n
    /// must be rejected, not wrapped into a near-2^64 allocation
    /// request; the upper cap rejects huge-but-valid counts too.
    int64_t n = 0;
    RecommendOptions opts;
  };

  struct RecommendResponse {
    core::CandidateList candidates;  ///< descending score
  };

  struct NeighborsRequest {
    int user = -1;
    /// Neighborhood size for this request; unset uses Options::beta.
    /// Any explicit value <= 0 or above kMaxRequestLimit is
    /// InvalidArgument (signed so negatives from untrusted callers are
    /// rejectable, not wrapped).
    std::optional<int64_t> beta_override;
  };

  struct NeighborsResponse {
    std::vector<index::Neighbor> neighbors;  ///< descending similarity
  };

  struct HistoryRequest {
    int user = -1;
  };

  struct HistoryResponse {
    std::vector<int> items;  ///< chronological snapshot copy
  };

  /// `model` must be fitted and outlive the engine.
  Engine(const models::InductiveUiModel& model, Options options);

  /// Joins any in-flight background save (WaitForSave) before members
  /// are torn down.
  ~Engine();

  /// Loads initial user states / the split's training prefixes and
  /// builds the shard indexes. Exactly once, before any serving call.
  ///
  /// With Options::recover_dir set, Bootstrap additionally recovers
  /// durable state from that directory after the in-memory build: the
  /// last snapshot (if one exists) replaces each shard's state, the
  /// journal tail replays through the normal ingest path, and every
  /// subsequent ingest is write-ahead journaled there — so a process
  /// killed at any instant restarts bit-identical to one that never
  /// died. A fresh directory is created and degenerates to plain
  /// bootstrap + journaling.
  Status Bootstrap(const std::vector<UserState>& users);
  Status BootstrapFromSplit(const data::LeaveOneOutSplit& split);

  /// Absorbs a batch of interactions (see IngestRequest). The whole
  /// batch is validated first — an InvalidArgument response means no
  /// state changed. An empty batch is a no-op OK.
  StatusOr<IngestResponse> Ingest(const IngestRequest& request);

  /// Eq. 12 similarity-weighted candidate list for one user.
  StatusOr<RecommendResponse> Recommend(const RecommendRequest& request) const;

  /// Eq. 11 neighborhood of one user, freshest state (staged upserts
  /// included).
  StatusOr<NeighborsResponse> Neighbors(const NeighborsRequest& request) const;

  /// Snapshot copy of one user's history (NotFound for unknown users).
  StatusOr<HistoryResponse> History(const HistoryRequest& request) const;

  /// Flushes every shard's staged upserts into its backend index. With
  /// the interval/background policies enabled this is still useful as a
  /// synchronous "drain everything now" barrier (tests, checkpoints).
  Status Compact();

  /// Writes a full snapshot to Options::recover_dir and rotates the
  /// journal (see persist::PersistenceManager::Save) — the SAVE server
  /// command. FailedPrecondition when no recover_dir was configured.
  /// Safe while serving traffic is in flight. Saves are single-flight:
  /// if another Save/BgSave is currently running, returns AlreadyExists
  /// ("save already in progress") without touching any state.
  Status Save();

  /// Non-blocking counterpart to Save() — the BGSAVE server command.
  /// Runs the identical snapshot + journal rotation on a dedicated
  /// helper thread (the export takes one shard lock at a time, so
  /// serving traffic keeps flowing) and invokes `on_done` with the
  /// result from that thread once finished. Returns immediately:
  /// OK means the save was started, AlreadyExists means another
  /// Save/BgSave is in flight (single-flight guard), FailedPrecondition
  /// means persistence is not configured.
  ///
  /// `on_done` runs on the helper thread after the in-progress flag has
  /// been released; it must be thread-safe and must not call BgSave /
  /// Save / WaitForSave itself (it would deadlock joining its own
  /// thread). Typical use hands the status back to an event loop (e.g.
  /// enqueue + eventfd wakeup).
  Status BgSave(std::function<void(const Status&)> on_done);

  /// Blocks until any in-flight background save has finished and its
  /// thread is joined. Safe to call with none running. Call before
  /// closing resources the BgSave completion callback touches.
  void WaitForSave();

  /// True while a Save/BgSave is running — the STATS save_in_progress
  /// field.
  bool save_in_progress() const {
    return save_in_progress_.load(std::memory_order_acquire);
  }

  /// Unix seconds of the last successful Save/BgSave (-1 if none yet
  /// this process — distinguishable from a save that landed at epoch 0)
  /// — the LASTSAVE server command. Recovery does not count: it reads
  /// snapshots, it doesn't write one.
  int64_t last_save_unix_s() const {
    return last_save_unix_s_.load(std::memory_order_acquire);
  }

  /// Wall-clock duration of the most recently *completed* Save/BgSave,
  /// successful or not (-1 if none yet) — the STATS
  /// last_save_duration_ms field.
  int64_t last_save_duration_ms() const {
    return last_save_duration_ms_.load(std::memory_order_acquire);
  }

  /// True when Options::recover_dir was configured (SAVE will work).
  bool persistence_enabled() const { return persistence_ != nullptr; }

  /// Explicit background-compaction lifecycle (Bootstrap starts the
  /// thread when Options::background_compaction is set; the destructor
  /// stops it). Start is a no-op when running, Stop when not.
  Status StartBackgroundCompaction() {
    return service_.StartBackgroundCompaction();
  }
  void StopBackgroundCompaction() { service_.StopBackgroundCompaction(); }
  bool background_compaction_running() const {
    return service_.background_compaction_running();
  }

  size_t pending_upserts() const { return service_.pending_upserts(); }
  size_t num_users() const { return service_.num_users(); }

  /// Point-in-time operational counters, cheap enough to poll (one
  /// shared lock per shard for the staged count). This is what the
  /// network server's STATS command surfaces; later scale items
  /// (persistence, memory accounting) extend this snapshot rather than
  /// adding ad-hoc getters.
  struct StatsSnapshot {
    size_t num_users = 0;
    size_t num_shards = 0;
    size_t pending_upserts = 0;
    bool background_compaction = false;
    bool save_in_progress = false;
    int64_t last_save_duration_ms = -1;  ///< -1 until a save completes
    /// Memory accounting, summed over ShardStats(): fp32 row bytes held
    /// by the backend indexes, SQ8 code bytes (codes + per-row params),
    /// and resident HNSW tombstones. Exactly one of embedding_bytes /
    /// code_bytes dominates depending on Options::storage.
    size_t embedding_bytes = 0;
    size_t code_bytes = 0;
    size_t tombstones = 0;
  };
  StatsSnapshot Stats() const {
    StatsSnapshot out{service_.num_users(),
                      service_.num_shards(),
                      service_.pending_upserts(),
                      service_.background_compaction_running(),
                      save_in_progress(),
                      last_save_duration_ms()};
    for (const core::RealTimeService::ShardStats& s : ShardStats()) {
      out.embedding_bytes += s.embedding_bytes;
      out.code_bytes += s.code_bytes;
      out.tombstones += s.tombstones;
    }
    return out;
  }

  /// Per-shard occupancy/memory accounting (the SHARDSTATS server
  /// command): one entry per shard, each read under that shard's shared
  /// lock. See core::RealTimeService::ShardStatsSnapshot.
  std::vector<core::RealTimeService::ShardStats> ShardStats() const {
    return service_.ShardStatsSnapshot();
  }

  /// The wrapped service, for diagnostics (shard topology, shard stats)
  /// and tests. Serving traffic should use the typed API above.
  const core::RealTimeService& service() const { return service_; }
  core::RealTimeService& service() { return service_; }

 private:
  /// Recovery + journal attachment, run by both Bootstrap overloads
  /// after the in-memory build when Options::recover_dir is set.
  Status RecoverFromDir(const std::string& dir, bool journal_fsync);

  /// The shared save body (Save and the BgSave helper thread both run
  /// it): snapshot + rotate, then record duration and — on success —
  /// the save timestamp. Caller owns the single-flight guard.
  Status DoSave();

  core::RealTimeService service_;
  std::unique_ptr<persist::PersistenceManager> persistence_;
  std::atomic<int64_t> last_save_unix_s_{-1};
  std::atomic<int64_t> last_save_duration_ms_{-1};
  /// Single-flight guard over Save/BgSave; acquired by CAS, released by
  /// whichever thread ran DoSave (before the BgSave callback fires, so
  /// the callback observes save_in_progress() == false).
  std::atomic<bool> save_in_progress_{false};
  /// Guards bgsave_thread_ (spawn/join); never held while saving.
  std::mutex save_mu_;
  std::thread bgsave_thread_;
};

}  // namespace sccf::online

#endif  // SCCF_ONLINE_ENGINE_H_
