#include "core/realtime.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <thread>

#include "util/coding.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace sccf::core {

namespace {

/// Monotonic clock for buffer-age stamps (same clock as Stopwatch).
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Background sweep cadence: half the compaction interval (clamped to
/// [1ms, interval]) so an overdue shard is drained within ~1.5 intervals
/// of its oldest row; with no interval the thread polls every 10ms and
/// drains anything non-empty.
int64_t SweepPeriodMs(int64_t interval_ms) {
  if (interval_ms <= 0) return 10;
  return std::max<int64_t>(1, interval_ms / 2);
}

/// splitmix64 finalizer: a fixed, platform-independent user -> shard map
/// (std::hash<int> is identity on libstdc++, which would turn "users 0..T
/// round-robin" workloads into a single hot shard under modulo). Shared
/// with scenario/generators.cc, whose hot_shard adversarial generator
/// picks user ids that all land on the same shard under this exact map.
size_t ShardIndex(int user, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<size_t>(
      SplitMix64(static_cast<uint64_t>(static_cast<uint32_t>(user))) %
      num_shards);
}

/// Appends to a history that grows by a bounded step, not by doubling.
/// A doubled buffer is up to half unused and the one it replaced is left
/// to the heap, so under a steady ingest stream the daemon's RSS grew
/// by nearly twice the 4 bytes each event adds.
void AppendToHistory(std::vector<int>* history, int item) {
  if (history->size() == history->capacity()) {
    history->reserve(history->size() +
                     std::max<size_t>(16, history->size() / 8));
  }
  history->push_back(item);
}

}  // namespace

RealTimeService::RealTimeService(const models::InductiveUiModel& model,
                                 Options options)
    : model_(&model), options_(options) {
  SCCF_CHECK_GT(model_->num_items(), 0u) << "model must be fitted";
}

RealTimeService::~RealTimeService() { StopBackgroundCompaction(); }

Status RealTimeService::BuildShard(
    Shard* shard, const std::vector<const UserState*>& users) const {
  const size_t d = model_->embedding_dim();
  std::vector<int> ids(users.size());
  std::vector<float> embeddings(users.size() * d, 0.0f);
  for (size_t i = 0; i < users.size(); ++i) {
    const UserState& s = *users[i];
    ids[i] = s.user;
    if (!s.history.empty()) {
      InferRecent(*model_, s.history, options_.infer_window,
                  embeddings.data() + i * d);
    }
    shard->histories[s.user] = s.history;
  }
  SCCF_ASSIGN_OR_RETURN(
      shard->index,
      BuildIndex(options_.index_kind, options_.metric, options_.storage,
                 options_.ivf, options_.hnsw, d, ids, embeddings));
  shard->pending = std::make_unique<index::UpsertBuffer>(d, options_.metric,
                                                         options_.storage);
  return Status::OK();
}

Status RealTimeService::Bootstrap(const std::vector<UserState>& users) {
  if (bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap may be called once");
  }
  if (options_.beta == 0) {
    return Status::InvalidArgument("options.beta must be positive");
  }
  if (options_.compaction_interval_ms < 0) {
    return Status::InvalidArgument(
        "options.compaction_interval_ms must be >= 0");
  }
  for (const UserState& s : users) {
    if (s.user < 0) return Status::InvalidArgument("negative user id");
  }

  size_t num_shards = options_.num_shards;
  if (num_shards == 0) {
    num_shards = std::max(1u, std::thread::hardware_concurrency());
  }
  shards_.clear();
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }

  // Partition preserving input order, so per-shard insertion order (and
  // therefore index state) is deterministic for a given input.
  std::vector<std::vector<const UserState*>> partition(num_shards);
  for (const UserState& s : users) {
    partition[ShardIndex(s.user, num_shards)].push_back(&s);
  }

  std::vector<Status> shard_status(num_shards);
  ParallelFor(0, num_shards, [&](size_t s) {
    shard_status[s] = BuildShard(shards_[s].get(), partition[s]);
  });
  for (const Status& st : shard_status) {
    if (!st.ok()) return st;
  }
  bootstrapped_ = true;
  if (options_.background_compaction) {
    SCCF_RETURN_NOT_OK(StartBackgroundCompaction());
  }
  return Status::OK();
}

Status RealTimeService::BootstrapFromSplit(
    const data::LeaveOneOutSplit& split) {
  std::vector<UserState> users(split.num_users());
  for (size_t u = 0; u < split.num_users(); ++u) {
    users[u].user = static_cast<int>(u);
    const std::span<const int> h = split.TrainSequence(u);
    users[u].history.assign(h.begin(), h.end());
  }
  return Bootstrap(users);
}

Status RealTimeService::SearchShard(const Shard& shard, const float* query,
                                    int exclude_user,
                                    index::TopKAccumulator* acc) const {
  // Age policy, query side: an overdue buffer is drained before the
  // search, under an opportunistically-acquired write lock. try_to_lock
  // keeps a herd of concurrent readers from queueing on the exclusive
  // lock the instant a shard turns overdue (a failed try means some
  // other thread holds the lock — a competing drainer or an ingest
  // writer that runs the same age check — so this query just serves the
  // merged staged view and lets that thread, the next toucher, or the
  // background sweep do the drain). The lock-free overdue probe keeps
  // the common case (nothing staged, or staged but fresh) on the pure
  // shared-lock path; the post-acquisition re-check handles a drain that
  // already won. Draining is bit-exact, so this only moves rows from the
  // linear buffer scan into the backend index.
  if (ShardOverdue(shard)) {
    std::unique_lock<std::shared_mutex> wlock(shard.mu, std::try_to_lock);
    if (wlock.owns_lock() && shard.pending != nullptr &&
        !shard.pending->empty() && ShardOverdue(shard)) {
      SCCF_RETURN_NOT_OK(DrainShardLocked(shard));
    }
  }
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  // The backend offers its rows straight into the caller's selector; a
  // staged id's indexed row is stale, so the write buffer is its shadow
  // set, and the staged row itself is offered after.
  const index::UpsertBuffer* staged =
      shard.pending == nullptr || shard.pending->empty()
          ? nullptr
          : shard.pending.get();
  SCCF_RETURN_NOT_OK(shard.index->SearchInto(query, exclude_user, staged, acc));
  if (staged != nullptr) staged->OfferTo(query, exclude_user, acc);
  return Status::OK();
}

StatusOr<std::vector<index::Neighbor>> RealTimeService::SearchAllShards(
    const float* query, size_t k, int exclude_user) const {
  // One selector over every shard: each shard's scan offers into it, so a
  // row below the k-th score the shards before it already hold is dropped
  // by the threshold filter.
  index::TopKAccumulator acc(k);
  for (const auto& shard : shards_) {
    SCCF_RETURN_NOT_OK(SearchShard(*shard, query, exclude_user, &acc));
  }
  return acc.Take();
}

StatusOr<RealTimeService::UpdateTiming> RealTimeService::OnInteraction(
    int user, int item) {
  const Event event{user, item, 0};
  SCCF_ASSIGN_OR_RETURN(BatchResult result,
                        OnInteractionBatch(std::span<const Event>(&event, 1)));
  return result.timings[0];
}

StatusOr<RealTimeService::BatchResult> RealTimeService::OnInteractionBatch(
    std::span<const Event> events, bool identify) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap must run first");
  }
  // Validate the whole batch before touching any shard: a rejected batch
  // must leave no partial state behind.
  for (const Event& e : events) {
    if (e.user < 0) {
      return Status::InvalidArgument("negative user id " +
                                     std::to_string(e.user));
    }
    if (e.item < 0 || static_cast<size_t>(e.item) >= model_->num_items()) {
      return Status::InvalidArgument("unknown item " + std::to_string(e.item));
    }
    if (e.ts < 0) {
      return Status::InvalidArgument("negative timestamp " +
                                     std::to_string(e.ts));
    }
  }
  BatchResult result;
  result.timings.assign(events.size(), UpdateTiming{});
  if (events.empty()) return result;

  // One copy of the batch, stably grouped by owning shard: group s is
  // grouped[begin[s], begin[s + 1]), in batch order (each user's
  // chronological order, by contract), and origin[slot] is the batch
  // position of grouped[slot].
  const size_t num_shards = shards_.size();
  std::vector<size_t> begin(num_shards + 1, 0);
  for (const Event& e : events) ++begin[ShardIndex(e.user, num_shards) + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<Event> grouped(events.size());
  std::vector<size_t> origin(events.size());
  std::vector<size_t> fill(begin.begin(), begin.end() - 1);
  for (size_t i = 0; i < events.size(); ++i) {
    const size_t slot = fill[ShardIndex(events[i].user, num_shards)]++;
    grouped[slot] = events[i];
    origin[slot] = i;
  }

  // Users touched by this batch, in (shard, first-touch) order; each
  // one's `last` is rewritten from its group position to its batch
  // position, which carries the user's costs.
  std::vector<TouchedUser> touched;
  for (size_t s = 0; s < num_shards; ++s) {
    const std::span<const Event> group(grouped.data() + begin[s],
                                       begin[s + 1] - begin[s]);
    if (group.empty()) continue;
    Shard& shard = *shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    // Write-ahead: journal the group before any mutation (replay applies
    // the same span through the same ApplyGroupLocked).
    SCCF_RETURN_NOT_OK(JournalShardGroupLocked(s, shard, group));
    const size_t first = touched.size();
    SCCF_ASSIGN_OR_RETURN(const size_t created,
                          ApplyGroupLocked(shard, group, &touched));
    result.cold_start_users += created;
    result.pending_upserts += shard.pending->size();
    for (size_t t = first; t < touched.size(); ++t) {
      touched[t].last = origin[begin[s] + touched[t].last];
      result.timings[touched[t].last] = touched[t].timing;
    }
  }
  result.users_touched = touched.size();

  if (!identify) return result;

  // Identify outside every write lock: the fresh neighborhood spans all
  // shards, and holding a write lock while taking other shards' read
  // locks would serialize ingest (and risk lock-order deadlock).
  for (const TouchedUser& t : touched) {
    Stopwatch identify_clock;
    SCCF_ASSIGN_OR_RETURN(std::vector<index::Neighbor> neighbors,
                          SearchAllShards(t.emb.data(), options_.beta, t.user));
    (void)neighbors;
    result.timings[t.last].identify_ms = identify_clock.ElapsedMillis();
  }
  return result;
}

Status RealTimeService::JournalShardGroupLocked(
    size_t shard_idx, Shard& shard, std::span<const Event> events) {
  const uint64_t seq = shard.journal_seq + 1;
  if (sink_ != nullptr) {
    SCCF_RETURN_NOT_OK(sink_->Append(shard_idx, seq, events));
  }
  // Bumped only after the sink accepted the record: a failed append must
  // leave no sequence gap for later records to trip over at replay.
  shard.journal_seq = seq;
  return Status::OK();
}

StatusOr<size_t> RealTimeService::ApplyGroupLocked(
    Shard& shard, std::span<const Event> group,
    std::vector<TouchedUser>* touched) {
  const size_t first = touched->size();
  size_t created_users = 0;
  std::unordered_map<int, size_t> touched_at;  // user -> index in *touched
  for (size_t i = 0; i < group.size(); ++i) {
    const Event& e = group[i];
    auto [hist_it, created] = shard.histories.try_emplace(e.user);
    AppendToHistory(&hist_it->second, e.item);  // cold start: creates
    created_users += created ? 1 : 0;
    auto [it, inserted] = touched_at.try_emplace(e.user, touched->size());
    if (inserted) {
      touched->push_back({e.user, i, {}, {}});
    } else {
      (*touched)[it->second].last = i;
    }
  }

  // Re-infer each touched user once, from the final history, and push the
  // embedding toward the index — directly when writing through, via the
  // shard's write buffer when batching compactions.
  for (size_t t = first; t < touched->size(); ++t) {
    TouchedUser& tu = (*touched)[t];
    const std::vector<int>& history = shard.histories[tu.user];
    tu.emb.assign(model_->embedding_dim(), 0.0f);

    Stopwatch infer_clock;
    InferRecent(*model_, history, options_.infer_window, tu.emb.data());
    tu.timing.infer_ms = infer_clock.ElapsedMillis();

    Stopwatch index_clock;
    if (options_.compaction_threshold <= 1) {
      SCCF_RETURN_NOT_OK(shard.index->Add(tu.user, tu.emb.data()));
    } else {
      const bool was_empty = shard.pending->empty();
      shard.pending->Put(tu.user, tu.emb.data());
      if (was_empty) {
        shard.staged_since_ns.store(NowNs(), std::memory_order_release);
      }
      // Count threshold or age bound, whichever trips first — both drain
      // through the same bit-exact path while this write lock is held.
      if (shard.pending->size() >= options_.compaction_threshold ||
          ShardOverdue(shard)) {
        SCCF_RETURN_NOT_OK(DrainShardLocked(shard));
      }
    }
    tu.timing.index_ms = index_clock.ElapsedMillis();
  }
  return created_users;
}

Status RealTimeService::Compact() {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap must run first");
  }
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (shard.pending != nullptr && !shard.pending->empty()) {
      SCCF_RETURN_NOT_OK(DrainShardLocked(shard));
    }
  }
  return Status::OK();
}

Status RealTimeService::DrainShardLocked(const Shard& shard) const {
  const Status st = shard.pending->DrainTo(shard.index.get());
  // Cleared even on error: DrainTo empties the buffer regardless (a
  // failed Add there is a programming error, not recoverable input).
  shard.staged_since_ns.store(0, std::memory_order_release);
  return st;
}

bool RealTimeService::ShardOverdue(const Shard& shard) const {
  if (options_.compaction_interval_ms <= 0) return false;
  const int64_t since =
      shard.staged_since_ns.load(std::memory_order_acquire);
  if (since == 0) return false;
  return NowNs() - since >= options_.compaction_interval_ms * 1'000'000;
}

Status RealTimeService::StartBackgroundCompaction() {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap must run first");
  }
  if (bg_running_.load(std::memory_order_acquire)) return Status::OK();
  {
    std::lock_guard<std::mutex> guard(bg_mu_);
    bg_stop_ = false;
  }
  bg_running_.store(true, std::memory_order_release);
  bg_thread_ = std::thread([this] { BackgroundCompactionLoop(); });
  return Status::OK();
}

void RealTimeService::StopBackgroundCompaction() {
  if (!bg_running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> guard(bg_mu_);
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (bg_thread_.joinable()) bg_thread_.join();
  bg_running_.store(false, std::memory_order_release);
}

bool RealTimeService::background_compaction_running() const {
  return bg_running_.load(std::memory_order_acquire);
}

void RealTimeService::BackgroundCompactionLoop() {
  const auto period = std::chrono::milliseconds(
      SweepPeriodMs(options_.compaction_interval_ms));
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (true) {
    // Wakes early on stop; otherwise sweeps once per period. Spurious
    // wakeups just sweep early, which is harmless (drains are no-ops on
    // fresh or empty buffers).
    bg_cv_.wait_for(lock, period, [this] { return bg_stop_; });
    if (bg_stop_) return;
    lock.unlock();  // never hold bg_mu_ while taking a shard lock
    SweepShardsOnce();
    lock.lock();
  }
}

void RealTimeService::SweepShardsOnce() const {
  const bool age_gated = options_.compaction_interval_ms > 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    // Lock-free probe first: the sweep must not write-lock (and so
    // stall) shards with nothing to drain.
    const int64_t since =
        shard.staged_since_ns.load(std::memory_order_acquire);
    if (since == 0) continue;
    if (age_gated && !ShardOverdue(shard)) continue;
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (shard.pending == nullptr || shard.pending->empty()) continue;
    if (age_gated && !ShardOverdue(shard)) continue;
    const Status st = DrainShardLocked(shard);
    SCCF_CHECK(st.ok()) << "background compaction drain failed: "
                        << st.message();
  }
}

size_t RealTimeService::pending_upserts() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    if (shard->pending != nullptr) total += shard->pending->size();
  }
  return total;
}

StatusOr<std::vector<index::Neighbor>> RealTimeService::Neighbors(
    int user, size_t beta) const {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap must run first");
  }
  const size_t effective_beta = beta == 0 ? options_.beta : beta;
  if (effective_beta == 0) {
    return Status::InvalidArgument("beta must be positive");
  }
  std::vector<float> emb(model_->embedding_dim(), 0.0f);
  {
    const Shard& shard = *shards_[ShardIndex(user, shards_.size())];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.histories.find(user);
    if (it == shard.histories.end() || it->second.empty()) {
      return Status::NotFound("user " + std::to_string(user) +
                              " has no history");
    }
    InferRecent(*model_, it->second, options_.infer_window, emb.data());
  }
  return SearchAllShards(emb.data(), effective_beta, user);
}

StatusOr<CandidateList> RealTimeService::RecommendUserBased(
    int user, size_t n, size_t beta, bool exclude_seen) const {
  if (n == 0) {
    return Status::InvalidArgument("n must be positive");
  }
  SCCF_ASSIGN_OR_RETURN(std::vector<index::Neighbor> neighbors,
                        Neighbors(user, beta));
  // Accumulate in merged-neighbor order (identical float addition order
  // to the single-index implementation), reading each neighbor's history
  // under the owning shard's read lock.
  VoteTally tally(model_->num_items(), options_.vote_window);
  for (const index::Neighbor& nb : neighbors) {
    const Shard& shard = *shards_[ShardIndex(nb.id, shards_.size())];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto hist = shard.histories.find(nb.id);
    if (hist != shard.histories.end()) tally.Add(hist->second, nb.score);
  }
  std::vector<float>& scores = tally.scores();
  if (exclude_seen) {
    const Shard& shard = *shards_[ShardIndex(user, shards_.size())];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto hist = shard.histories.find(user);
    if (hist != shard.histories.end()) {
      for (int item : hist->second) scores[item] = 0.0f;
    }
  }
  return TopNFromScores(scores, n, 0.0f);
}

StatusOr<std::vector<int>> RealTimeService::History(int user) const {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap must run first");
  }
  const Shard& shard = *shards_[ShardIndex(user, shards_.size())];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.histories.find(user);
  if (it == shard.histories.end()) {
    return Status::NotFound("user " + std::to_string(user) + " is unknown");
  }
  return it->second;  // copies under the lock
}

size_t RealTimeService::num_users() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    total += shard->histories.size();
  }
  return total;
}

size_t RealTimeService::ShardOf(int user) const {
  SCCF_CHECK(!shards_.empty()) << "Bootstrap must run first";
  return ShardIndex(user, shards_.size());
}

namespace {

/// Shard payload framing shared by ExportShard/RestoreShard:
///   u64 journal_seq
///   u64 num_history_users | per user: i32 user | u64 len | i32 item x len
///   u64-length-prefixed index blob (VectorIndex::SerializeTo)
///   u64 num_pending       | per row: i32 user | f32 x dim
void PutIntListMap(std::string* out,
                   const std::unordered_map<int, std::vector<int>>& map) {
  PutFixed64(out, static_cast<uint64_t>(map.size()));
  for (const auto& [user, items] : map) {
    PutI32(out, user);
    PutFixed64(out, static_cast<uint64_t>(items.size()));
    for (int item : items) PutI32(out, item);
  }
}

Status ReadIntListMap(ByteReader* reader, size_t shard_idx,
                      size_t num_shards, size_t max_item,
                      std::unordered_map<int, std::vector<int>>* map) {
  uint64_t count = 0;
  SCCF_RETURN_NOT_OK(reader->ReadFixed64(&count));
  if (count > reader->remaining() / 12) {  // >= 12 bytes per entry
    return Status::IoError("truncated shard payload (map size)");
  }
  map->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t user = 0;
    uint64_t len = 0;
    SCCF_RETURN_NOT_OK(reader->ReadI32(&user));
    if (user < 0 || ShardIndex(user, num_shards) != shard_idx) {
      return Status::InvalidArgument("shard payload user in wrong shard");
    }
    SCCF_RETURN_NOT_OK(reader->ReadFixed64(&len));
    if (len > reader->remaining() / 4) {
      return Status::IoError("truncated shard payload (item list)");
    }
    std::vector<int> items;
    items.reserve(static_cast<size_t>(len));
    for (uint64_t j = 0; j < len; ++j) {
      int32_t item = 0;
      SCCF_RETURN_NOT_OK(reader->ReadI32(&item));
      if (item < 0 || static_cast<size_t>(item) >= max_item) {
        return Status::InvalidArgument("shard payload item out of range");
      }
      items.push_back(item);
    }
    if (!map->emplace(user, std::move(items)).second) {
      return Status::InvalidArgument("duplicate user in shard payload");
    }
  }
  return Status::OK();
}

}  // namespace

Status RealTimeService::ExportShard(size_t s, std::string* out) const {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap must run first");
  }
  if (s >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  const Shard& shard = *shards_[s];
  const size_t d = model_->embedding_dim();
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  PutFixed64(out, shard.journal_seq);
  PutIntListMap(out, shard.histories);
  std::string index_blob;
  shard.index->SerializeTo(&index_blob);
  PutLengthPrefixed(out, index_blob);
  const index::UpsertBuffer& pending = *shard.pending;
  PutFixed64(out, static_cast<uint64_t>(pending.size()));
  for (size_t i = 0; i < pending.size(); ++i) {
    PutI32(out, pending.ids()[i]);
    PutFloats(out, pending.row(i), d);
  }
  return Status::OK();
}

Status RealTimeService::RestoreShard(size_t s, std::string_view payload) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap must run first");
  }
  if (s >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  const size_t d = model_->embedding_dim();
  ByteReader reader(payload);

  uint64_t journal_seq = 0;
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&journal_seq));
  std::unordered_map<int, std::vector<int>> histories;
  SCCF_RETURN_NOT_OK(ReadIntListMap(&reader, s, shards_.size(),
                                    model_->num_items(), &histories));

  std::string_view index_blob;
  SCCF_RETURN_NOT_OK(reader.ReadLengthPrefixed(&index_blob));
  // Restore starts from an empty index: the blob carries the serializing
  // index's own geometry (e.g. its bootstrap-clamped IVF nlist).
  SCCF_ASSIGN_OR_RETURN(
      std::unique_ptr<index::VectorIndex> index,
      BuildIndex(options_.index_kind, options_.metric, options_.storage,
                 options_.ivf, options_.hnsw, d, {}, {}));
  SCCF_RETURN_NOT_OK(index->DeserializeFrom(index_blob));

  uint64_t pending_count = 0;
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&pending_count));
  auto pending = std::make_unique<index::UpsertBuffer>(d, options_.metric,
                                                       options_.storage);
  std::vector<float> row;
  for (uint64_t i = 0; i < pending_count; ++i) {
    int32_t user = 0;
    SCCF_RETURN_NOT_OK(reader.ReadI32(&user));
    if (user < 0 || ShardIndex(user, shards_.size()) != s) {
      return Status::InvalidArgument("staged row user in wrong shard");
    }
    SCCF_RETURN_NOT_OK(reader.ReadFloats(d, &row));
    // Put in serialized (= first-Put) order, so a later drain hands the
    // backend the identical Add sequence an uninterrupted run would.
    pending->Put(user, row.data());
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes in shard payload");
  }

  Shard& shard = *shards_[s];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  shard.histories = std::move(histories);
  shard.index = std::move(index);
  const bool has_pending = !pending->empty();
  shard.pending = std::move(pending);
  // Restored staged rows restart their age clock at "now": their original
  // stamps are meaningless on this boot's monotonic clock, and a zero
  // stamp on a non-empty buffer would hide it from the sweep forever.
  shard.staged_since_ns.store(has_pending ? NowNs() : 0,
                              std::memory_order_release);
  shard.journal_seq = journal_seq;
  return Status::OK();
}

Status RealTimeService::ApplyJournalRecord(size_t s, uint64_t seq,
                                           std::span<const Event> events) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap must run first");
  }
  if (s >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  // A journal record passed CRC framing but its contents are still
  // untrusted bytes from disk; range errors are corruption (IoError),
  // mirroring OnInteractionBatch's validate-before-mutate discipline.
  for (const Event& e : events) {
    if (e.user < 0 || ShardIndex(e.user, shards_.size()) != s) {
      return Status::IoError("journal record user in wrong shard");
    }
    if (e.item < 0 || static_cast<size_t>(e.item) >= model_->num_items()) {
      return Status::IoError("journal record item out of range");
    }
  }

  Shard& shard = *shards_[s];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  if (seq <= shard.journal_seq) {
    return Status::OK();  // already covered by the restored snapshot
  }
  if (seq != shard.journal_seq + 1) {
    return Status::IoError("journal sequence gap: shard expects " +
                           std::to_string(shard.journal_seq + 1) +
                           ", record carries " + std::to_string(seq));
  }
  shard.journal_seq = seq;
  // The record is the span OnInteractionBatch journaled for this group,
  // applied by the same routine, so replayed state is bit-identical.
  std::vector<TouchedUser> touched;
  return ApplyGroupLocked(shard, events, &touched).status();
}

uint64_t RealTimeService::ShardJournalSeq(size_t s) const {
  SCCF_CHECK_LT(s, shards_.size()) << "shard index out of range";
  const Shard& shard = *shards_[s];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  return shard.journal_seq;
}

std::vector<RealTimeService::ShardStats>
RealTimeService::ShardStatsSnapshot() const {
  std::vector<ShardStats> stats(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    ShardStats& st = stats[s];
    st.users = shard.histories.size();
    st.index_rows = shard.index != nullptr ? shard.index->size() : 0;
    if (shard.index != nullptr) {
      const index::IndexMemoryStats mem = shard.index->memory_stats();
      st.embedding_bytes = mem.embedding_bytes;
      st.code_bytes = mem.code_bytes;
      st.tombstones = mem.tombstones;
    }
    st.staged_rows = shard.pending != nullptr ? shard.pending->size() : 0;
  }
  return stats;
}

std::vector<size_t> RealTimeService::ShardSizes() const {
  std::vector<size_t> sizes(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock<std::shared_mutex> lock(shards_[s]->mu);
    sizes[s] = shards_[s]->histories.size();
  }
  return sizes;
}

}  // namespace sccf::core
