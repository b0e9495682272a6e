// The Engine serving facade: typed request/response validation, the
// batch-of-1 == OnInteraction pin, batched-vs-sequential state
// equivalence through the write buffer + compaction, and pre-compaction
// query freshness (staged upserts merged into searches).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "data/split.h"
#include "data/synthetic.h"
#include "models/fism.h"
#include "online/engine.h"
#include "util/stopwatch.h"

namespace sccf::online {
namespace {

using core::IndexKind;
using core::RealTimeService;

class EngineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "engine-test";
    cfg.num_users = 120;
    cfg.num_items = 160;
    cfg.num_clusters = 8;
    cfg.min_actions = 10;
    cfg.max_actions = 30;
    cfg.seed = 53;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);

    models::Fism::Options fopts;
    fopts.dim = 16;
    fopts.epochs = 5;
    fism_ = new models::Fism(fopts);
    SCCF_CHECK(fism_->Fit(*split_).ok());
  }
  static void TearDownTestSuite() {
    delete fism_;
    delete split_;
    delete dataset_;
    fism_ = nullptr;
    split_ = nullptr;
    dataset_ = nullptr;
  }

  static Engine::Options BaseOptions() {
    Engine::Options opts;
    opts.beta = 10;
    opts.num_shards = 4;
    return opts;
  }

  /// A deterministic multi-user event log with interleaved users and two
  /// cold-start users (5000, 5001), shuffled with a fixed seed so batch
  /// grouping has to untangle real interleaving.
  static std::vector<Engine::Event> ShuffledEventLog() {
    std::vector<Engine::Event> events;
    const int num_items = static_cast<int>(dataset_->num_items());
    for (int step = 0; step < 6; ++step) {
      for (int u = 0; u < 30; ++u) {
        events.push_back({u, (u * 11 + step * 7) % num_items, step});
      }
      events.push_back({5000, (step * 13 + 1) % num_items, step});
      events.push_back({5001, (step * 17 + 2) % num_items, step});
    }
    // Shuffle whole steps? No — shuffle events while preserving each
    // user's chronological order: stable-partition by a seeded key on
    // (user, step) would be complex; instead interleave users randomly
    // within each step (order across steps per user stays sorted).
    std::mt19937 rng(1234);
    size_t step_len = 32;  // 30 users + 2 cold per step
    for (size_t lo = 0; lo + step_len <= events.size(); lo += step_len) {
      std::shuffle(events.begin() + lo, events.begin() + lo + step_len, rng);
    }
    return events;
  }

  /// Asserts both services expose identical user-facing state for
  /// `users`: histories, neighborhoods, recommendations.
  static void ExpectSameState(const RealTimeService& a,
                              const RealTimeService& b,
                              const std::vector<int>& users) {
    ASSERT_EQ(a.num_users(), b.num_users());
    for (int user : users) {
      auto h_a = a.History(user);
      auto h_b = b.History(user);
      ASSERT_TRUE(h_a.ok()) << "user " << user;
      ASSERT_TRUE(h_b.ok()) << "user " << user;
      EXPECT_EQ(*h_a, *h_b) << "history diverged for user " << user;

      auto n_a = a.Neighbors(user);
      auto n_b = b.Neighbors(user);
      ASSERT_TRUE(n_a.ok()) << "user " << user;
      ASSERT_TRUE(n_b.ok()) << "user " << user;
      ASSERT_EQ(n_a->size(), n_b->size()) << "user " << user;
      for (size_t i = 0; i < n_a->size(); ++i) {
        EXPECT_EQ((*n_a)[i].id, (*n_b)[i].id)
            << "user " << user << " rank " << i;
        EXPECT_FLOAT_EQ((*n_a)[i].score, (*n_b)[i].score);
      }

      auto r_a = a.RecommendUserBased(user, 10);
      auto r_b = b.RecommendUserBased(user, 10);
      ASSERT_TRUE(r_a.ok()) << "user " << user;
      ASSERT_TRUE(r_b.ok()) << "user " << user;
      ASSERT_EQ(r_a->size(), r_b->size()) << "user " << user;
      for (size_t i = 0; i < r_a->size(); ++i) {
        EXPECT_EQ((*r_a)[i].id, (*r_b)[i].id)
            << "user " << user << " rank " << i;
        EXPECT_FLOAT_EQ((*r_a)[i].score, (*r_b)[i].score);
      }
    }
  }

  static data::Dataset* dataset_;
  static data::LeaveOneOutSplit* split_;
  static models::Fism* fism_;
};

data::Dataset* EngineTest::dataset_ = nullptr;
data::LeaveOneOutSplit* EngineTest::split_ = nullptr;
models::Fism* EngineTest::fism_ = nullptr;

// ---------------------------------------------------------- validation

TEST_F(EngineTest, ServingBeforeBootstrapIsFailedPrecondition) {
  Engine engine(*fism_, BaseOptions());
  EXPECT_EQ(engine.Ingest({{{0, 1, 0}}, true}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Recommend({0, 5, {}}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Neighbors({0, std::nullopt}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.History({0}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Compact().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, RecommendValidatesRequest) {
  Engine engine(*fism_, BaseOptions());
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  // n = 0 must be rejected, not silently produce an empty list.
  EXPECT_EQ(engine.Recommend({5, 0, {}}).status().code(),
            StatusCode::kInvalidArgument);
  // n < 0 must be InvalidArgument too — the field is signed precisely so
  // a parsed "-7" is rejected instead of wrapping into a huge count.
  EXPECT_EQ(engine.Recommend({5, -7, {}}).status().code(),
            StatusCode::kInvalidArgument);
  // An explicit zero beta is a degenerate neighborhood, also rejected.
  Engine::RecommendOptions zero_beta;
  zero_beta.beta_override = 0;
  EXPECT_EQ(engine.Recommend({5, 10, zero_beta}).status().code(),
            StatusCode::kInvalidArgument);
  // Negative overrides are non-positive: same rejection, same message
  // ("must be positive") — previously only == 0 was caught and -3 flowed
  // into scoring as a wrapped unsigned beta.
  Engine::RecommendOptions negative_beta;
  negative_beta.beta_override = -3;
  EXPECT_EQ(engine.Recommend({5, 10, negative_beta}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Recommend({-3, 10, {}}).status().code(),
            StatusCode::kInvalidArgument);
  // Huge-but-positive counts are rejected too: a near-2^62 n would
  // otherwise reach the top-k accumulator as an absurd reserve() and
  // take the serving thread down with std::length_error.
  EXPECT_EQ(engine.Recommend({5, int64_t{1} << 62, {}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      engine.Recommend({5, Engine::kMaxRequestLimit + 1, {}}).status().code(),
      StatusCode::kInvalidArgument);
  Engine::RecommendOptions huge_beta;
  huge_beta.beta_override = int64_t{1} << 62;
  EXPECT_EQ(engine.Recommend({5, 10, huge_beta}).status().code(),
            StatusCode::kInvalidArgument);
  // A valid request against the same state succeeds.
  auto ok = engine.Recommend({5, 10, {}});
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok->candidates.empty());
}

TEST_F(EngineTest, NeighborsValidatesRequestAndOverridesBeta) {
  Engine engine(*fism_, BaseOptions());
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(engine.Neighbors({5, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Neighbors({5, -4}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Neighbors({5, Engine::kMaxRequestLimit + 1})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Neighbors({-1, std::nullopt}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Neighbors({999999, std::nullopt}).status().code(),
            StatusCode::kNotFound);
  auto three = engine.Neighbors({5, 3});
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three->neighbors.size(), 3u);
  auto def = engine.Neighbors({5, std::nullopt});
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->neighbors.size(), BaseOptions().beta);
}

TEST_F(EngineTest, ServiceLevelQueryValidation) {
  // The satellite contract holds below the facade too.
  RealTimeService service(*fism_, BaseOptions());
  ASSERT_TRUE(service.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(service.RecommendUserBased(5, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Options.beta == 0 is caught at Bootstrap.
  Engine::Options zero_beta = BaseOptions();
  zero_beta.beta = 0;
  RealTimeService degenerate(*fism_, zero_beta);
  EXPECT_EQ(degenerate.BootstrapFromSplit(*split_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, IngestValidatesWholeBatchBeforeMutating) {
  Engine engine(*fism_, BaseOptions());
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  const auto before = engine.History({3});
  ASSERT_TRUE(before.ok());
  // Batch with a valid event first and an invalid one later: rejected
  // atomically — the valid prefix must not be applied.
  Engine::IngestRequest bad;
  bad.events = {{3, 7, 0},
                {3, static_cast<int>(dataset_->num_items()) + 9, 1}};
  EXPECT_EQ(engine.Ingest(bad).status().code(),
            StatusCode::kInvalidArgument);
  Engine::IngestRequest negative_user;
  negative_user.events = {{-4, 7, 0}};
  EXPECT_EQ(engine.Ingest(negative_user).status().code(),
            StatusCode::kInvalidArgument);
  Engine::IngestRequest negative_item;
  negative_item.events = {{3, -2, 0}};
  EXPECT_EQ(engine.Ingest(negative_item).status().code(),
            StatusCode::kInvalidArgument);
  // Negative timestamps are rejected atomically too, even when a valid
  // event precedes them in the batch (no partial state may leak).
  Engine::IngestRequest negative_ts;
  negative_ts.events = {{3, 7, 0}, {3, 8, -12}};
  EXPECT_EQ(engine.Ingest(negative_ts).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.History({3})->items, before->items);
  // Empty batches are a no-op OK.
  auto empty = engine.Ingest({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_events, 0u);
}

TEST_F(EngineTest, ExcludeSeenToggle) {
  Engine engine(*fism_, BaseOptions());
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  const std::vector<int> history = engine.History({5})->items;
  Engine::RecommendOptions keep_seen;
  keep_seen.exclude_seen = false;
  auto with_seen = engine.Recommend({5, 50, keep_seen});
  auto without_seen = engine.Recommend({5, 50, {}});
  ASSERT_TRUE(with_seen.ok());
  ASSERT_TRUE(without_seen.ok());
  auto in_history = [&](int item) {
    return std::count(history.begin(), history.end(), item) > 0;
  };
  size_t seen_hits = 0;
  for (const auto& c : with_seen->candidates) seen_hits += in_history(c.id);
  EXPECT_GT(seen_hits, 0u) << "exclude_seen=false should surface history";
  for (const auto& c : without_seen->candidates) {
    EXPECT_FALSE(in_history(c.id)) << "item " << c.id;
  }
}

// ----------------------------------------------- batch-of-1 equivalence

// The single-event OnInteraction path is a thin batch-of-1 delegate;
// this pins it bit-identical to a service driven by per-event typed
// Ingest requests, across bootstrap users and cold starts.
TEST_F(EngineTest, SingleEventBatchMatchesOnInteraction) {
  Engine engine(*fism_, BaseOptions());
  RealTimeService direct(*fism_, BaseOptions());
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(direct.BootstrapFromSplit(*split_).ok());

  const std::vector<std::pair<int, int>> stream = {
      {0, 7}, {1, 8}, {70, 9}, {3000, 11}, {3000, 12}, {5, 13}, {0, 14}};
  for (const auto& [user, item] : stream) {
    auto timing = direct.OnInteraction(user, item);
    ASSERT_TRUE(timing.ok());
    auto resp = engine.Ingest({{{user, item, 0}}, true});
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->timings.size(), 1u);
    EXPECT_EQ(resp->num_events, 1u);
    EXPECT_EQ(resp->users_touched, 1u);
  }
  ExpectSameState(engine.service(), direct, {0, 1, 5, 70, 3000});
}

// ------------------------------------- batched-vs-sequential equivalence

// A shuffled multi-user event log ingested in batches through the write
// buffer (compaction deferred, then forced) must reproduce the exact
// post-state of per-event OnInteraction replay — histories, vote lists,
// neighborhoods, and recommendations, cold-start users included. Brute
// force is exact, so any divergence is a real bug.
TEST_F(EngineTest, BatchedIngestWithCompactionMatchesSequentialReplay) {
  for (size_t batch_size : {size_t{3}, size_t{17}, size_t{64}}) {
    Engine::Options opts = BaseOptions();
    opts.compaction_threshold = 16;  // defer refreshes across batches
    Engine batched(*fism_, opts);
    RealTimeService sequential(*fism_, BaseOptions());
    ASSERT_TRUE(batched.BootstrapFromSplit(*split_).ok());
    ASSERT_TRUE(sequential.BootstrapFromSplit(*split_).ok());

    const std::vector<Engine::Event> events = ShuffledEventLog();
    for (size_t lo = 0; lo < events.size(); lo += batch_size) {
      Engine::IngestRequest req;
      req.events.assign(events.begin() + lo,
                        events.begin() +
                            std::min(events.size(), lo + batch_size));
      req.identify = false;
      ASSERT_TRUE(batched.Ingest(req).ok());
    }
    for (const Engine::Event& e : events) {
      ASSERT_TRUE(sequential.OnInteraction(e.user, e.item).ok());
    }
    ASSERT_TRUE(batched.Compact().ok());
    EXPECT_EQ(batched.pending_upserts(), 0u);

    std::vector<int> users;
    for (int u = 0; u < 30; ++u) users.push_back(u);
    users.push_back(5000);
    users.push_back(5001);
    users.push_back(40);  // untouched bootstrap user must match too
    ExpectSameState(batched.service(), sequential, users);
  }
}

// One batch must leave the engine exactly as the same events ingested one
// at a time, for every backend. Both sides keep every refresh staged (the
// threshold is above the event count), so the backend indexes stay as
// bootstrapped and the write buffers, whose latest-row shadowing is exact,
// hold the same rows in the same order: the agreement is exact even for
// IVF-Flat and HNSW.
TEST_F(EngineTest, OneBatchMatchesOneEventAtATimeAllBackends) {
  const std::vector<Engine::Event> events = ShuffledEventLog();
  std::vector<int> users = {5000, 5001, 40};
  for (int u = 0; u < 30; ++u) users.push_back(u);
  for (IndexKind kind :
       {IndexKind::kBruteForce, IndexKind::kIvfFlat, IndexKind::kHnsw}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(kind)));
    Engine::Options opts = BaseOptions();
    opts.index_kind = kind;
    opts.compaction_threshold = events.size() + 1;
    Engine batched(*fism_, opts);
    Engine one_at_a_time(*fism_, opts);
    ASSERT_TRUE(batched.BootstrapFromSplit(*split_).ok());
    ASSERT_TRUE(one_at_a_time.BootstrapFromSplit(*split_).ok());

    ASSERT_TRUE(batched.Ingest({events, false}).ok());
    for (const Engine::Event& e : events) {
      ASSERT_TRUE(one_at_a_time.Ingest({{e}, false}).ok());
    }
    EXPECT_GT(batched.pending_upserts(), 0u);
    EXPECT_EQ(batched.pending_upserts(), one_at_a_time.pending_upserts());
    ExpectSameState(batched.service(), one_at_a_time.service(), users);
  }
}

// ------------------------------------------ pre-compaction freshness

// Queries must merge the write buffer: a cold-start user ingested with a
// huge compaction threshold (never flushed) is immediately visible in
// neighborhoods, and compaction must not change any result.
TEST_F(EngineTest, StagedUpsertsAreQueryFreshBeforeCompaction) {
  Engine::Options opts = BaseOptions();
  opts.compaction_threshold = 1000000;  // nothing flushes on its own
  Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());

  const int cold = 7777;
  const std::vector<int> cold_history = {7, 8, 9, 42, 43};
  Engine::IngestRequest req;
  for (size_t i = 0; i < cold_history.size(); ++i) {
    req.events.push_back({cold, cold_history[i], static_cast<int64_t>(i)});
  }
  auto resp = engine.Ingest(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->cold_start_users, 1u);
  EXPECT_GT(resp->pending_upserts, 0u);
  EXPECT_GT(engine.pending_upserts(), 0u);

  // The staged cold user is searchable (buffer merged into the search)…
  auto nbrs = engine.Neighbors({cold, std::nullopt});
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->neighbors.empty());
  // …and appears in another user's neighborhood search (all-shard
  // fan-out hits the buffer of the cold user's shard): the cold user's
  // own exact query from the same history is its nearest vector, so
  // search for a user with the same history must return it first.
  const int twin = 7778;
  Engine::IngestRequest twin_req;
  for (size_t i = 0; i < cold_history.size(); ++i) {
    twin_req.events.push_back(
        {twin, cold_history[i], static_cast<int64_t>(i)});
  }
  ASSERT_TRUE(engine.Ingest(twin_req).ok());
  auto twin_nbrs = engine.Neighbors({twin, std::nullopt});
  ASSERT_TRUE(twin_nbrs.ok());
  ASSERT_FALSE(twin_nbrs->neighbors.empty());
  EXPECT_EQ(twin_nbrs->neighbors[0].id, cold)
      << "identical staged user must be the nearest neighbor";

  // Results are identical before and after compaction (brute force).
  auto before = engine.Neighbors({cold, std::nullopt});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.pending_upserts(), 0u);
  auto after = engine.Neighbors({cold, std::nullopt});
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->neighbors.size(), after->neighbors.size());
  for (size_t i = 0; i < before->neighbors.size(); ++i) {
    EXPECT_EQ(before->neighbors[i].id, after->neighbors[i].id);
    EXPECT_FLOAT_EQ(before->neighbors[i].score, after->neighbors[i].score);
  }
}

// Staged updates to an *existing* user shadow the stale indexed row: the
// neighborhood must reflect the staged (fresh) embedding, not the
// pre-batch one.
TEST_F(EngineTest, StagedUpdateShadowsStaleIndexedRow) {
  Engine::Options opts = BaseOptions();
  opts.compaction_threshold = 1000000;
  Engine buffered(*fism_, opts);
  RealTimeService through(*fism_, BaseOptions());  // write-through twin
  ASSERT_TRUE(buffered.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(through.BootstrapFromSplit(*split_).ok());

  // Drift user 0 hard toward user 70's taste in both services.
  const auto target = split_->TrainSequence(70);
  const size_t take = std::min<size_t>(target.size(), 15);
  Engine::IngestRequest req;
  for (size_t i = target.size() - take; i < target.size(); ++i) {
    req.events.push_back({0, target[i], static_cast<int64_t>(i)});
    ASSERT_TRUE(through.OnInteraction(0, target[i]).ok());
  }
  ASSERT_TRUE(buffered.Ingest(req).ok());
  EXPECT_GT(buffered.pending_upserts(), 0u);

  auto staged = buffered.Neighbors({0, std::nullopt});
  auto fresh = through.Neighbors(0);
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(staged->neighbors.size(), fresh->size());
  for (size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ(staged->neighbors[i].id, (*fresh)[i].id) << "rank " << i;
  }
}

// ------------------------------------------- wall-clock compaction

// The age policy on the query path: rows staged behind an unreachable
// count threshold must drain once they are older than
// compaction_interval_ms and any query touches their shard — without
// changing the query's results (drains are bit-exact for brute force).
TEST_F(EngineTest, ColdShardAgeFlushOnQueryPath) {
  Engine::Options opts = BaseOptions();
  opts.compaction_threshold = 1000000;  // count trigger never fires
  opts.compaction_interval_ms = 150;
  Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());

  Stopwatch since_ingest;
  Engine::IngestRequest req;
  req.identify = false;  // pure ingest: no query may drain early
  for (int u = 0; u < 10; ++u) {
    req.events.push_back({u, (u * 3 + 1) % 100, 0});
  }
  ASSERT_TRUE(engine.Ingest(req).ok());
  // Nothing drains without a serving call (no background thread), so
  // this holds no matter how slowly the machine got here.
  ASSERT_GT(engine.pending_upserts(), 0u);

  // Query before the interval elapses: staged rows must survive (the
  // whole point of buffering) and still be merged into the results.
  auto fresh = engine.Neighbors({0, std::nullopt});
  ASSERT_TRUE(fresh.ok());
  if (since_ingest.ElapsedMillis() < opts.compaction_interval_ms) {
    // Only assert survival when the query provably ran pre-interval — a
    // loaded CI host can stall us past it, making the query itself the
    // (correct) age flush.
    EXPECT_GT(engine.pending_upserts(), 0u);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  auto aged = engine.Neighbors({0, std::nullopt});
  ASSERT_TRUE(aged.ok());
  // The fan-out visited every shard, so every overdue buffer drained.
  EXPECT_EQ(engine.pending_upserts(), 0u);
  // Bit-exact across the drain: same neighborhood before and after.
  ASSERT_EQ(fresh->neighbors.size(), aged->neighbors.size());
  for (size_t i = 0; i < fresh->neighbors.size(); ++i) {
    EXPECT_EQ(fresh->neighbors[i].id, aged->neighbors[i].id) << "rank " << i;
    EXPECT_FLOAT_EQ(fresh->neighbors[i].score, aged->neighbors[i].score);
  }
}

// The age policy on the ingest path: a shard whose oldest staged row has
// aged past the interval drains on the next write that touches it, even
// though the count threshold is still far away.
TEST_F(EngineTest, AgedBufferDrainsOnNextIngest) {
  Engine::Options opts = BaseOptions();
  opts.num_shards = 1;  // one shard so both ingests hit the same buffer
  opts.compaction_threshold = 1000000;
  opts.compaction_interval_ms = 150;
  Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());

  ASSERT_TRUE(engine.Ingest({{{1, 5, 0}}, false}).ok());
  ASSERT_EQ(engine.pending_upserts(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_TRUE(engine.Ingest({{{2, 6, 1}}, false}).ok());
  EXPECT_EQ(engine.pending_upserts(), 0u);
}

// Background compaction enabled end to end: a stream batched through
// the buffer with the thread racing drains underneath must land on the
// exact state of a write-through per-event replay (brute force), and
// stopping the thread must be clean (Engine lifecycle).
TEST_F(EngineTest, BackgroundCompactionIsBitExact) {
  Engine::Options opts = BaseOptions();
  opts.compaction_threshold = 16;
  opts.compaction_interval_ms = 1;  // aggressive: drains race the batches
  opts.background_compaction = true;
  Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  EXPECT_TRUE(engine.background_compaction_running());

  RealTimeService sequential(*fism_, BaseOptions());
  ASSERT_TRUE(sequential.BootstrapFromSplit(*split_).ok());

  const std::vector<Engine::Event> events = ShuffledEventLog();
  for (size_t lo = 0; lo < events.size(); lo += 17) {
    Engine::IngestRequest req;
    req.events.assign(events.begin() + lo,
                      events.begin() + std::min(events.size(), lo + 17));
    req.identify = false;
    ASSERT_TRUE(engine.Ingest(req).ok());
  }
  for (const Engine::Event& e : events) {
    ASSERT_TRUE(sequential.OnInteraction(e.user, e.item).ok());
  }

  engine.StopBackgroundCompaction();
  EXPECT_FALSE(engine.background_compaction_running());
  ASSERT_TRUE(engine.Compact().ok());  // whatever the thread left staged
  EXPECT_EQ(engine.pending_upserts(), 0u);

  std::vector<int> users;
  for (int u = 0; u < 30; ++u) users.push_back(u);
  users.push_back(5000);
  users.push_back(5001);
  ExpectSameState(engine.service(), sequential, users);

  // Restart is part of the lifecycle contract (both directions no-op
  // when redundant).
  ASSERT_TRUE(engine.StartBackgroundCompaction().ok());
  ASSERT_TRUE(engine.StartBackgroundCompaction().ok());
  EXPECT_TRUE(engine.background_compaction_running());
  engine.StopBackgroundCompaction();
  engine.StopBackgroundCompaction();
  EXPECT_FALSE(engine.background_compaction_running());
}

TEST_F(EngineTest, CompactionOptionValidation) {
  Engine::Options negative = BaseOptions();
  negative.compaction_interval_ms = -5;
  Engine engine(*fism_, negative);
  EXPECT_EQ(engine.BootstrapFromSplit(*split_).code(),
            StatusCode::kInvalidArgument);
  // Background compaction before Bootstrap is FailedPrecondition.
  Engine cold(*fism_, BaseOptions());
  EXPECT_EQ(cold.StartBackgroundCompaction().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cold.background_compaction_running());
}

// ---------------------------------------------------- response totals

TEST_F(EngineTest, IngestResponseAggregatesAreConsistent) {
  Engine engine(*fism_, BaseOptions());
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  Engine::IngestRequest req;
  // Two users, three events each -> 6 events, 2 touched, coalesced work.
  for (int step = 0; step < 3; ++step) {
    req.events.push_back({11, 20 + step, step});
    req.events.push_back({12, 30 + step, step});
  }
  auto resp = engine.Ingest(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->num_events, 6u);
  EXPECT_EQ(resp->users_touched, 2u);
  EXPECT_EQ(resp->cold_start_users, 0u);
  EXPECT_EQ(resp->timings.size(), 6u);
  double infer_sum = 0.0, identify_sum = 0.0;
  for (const auto& t : resp->timings) {
    infer_sum += t.infer_ms;
    identify_sum += t.identify_ms;
  }
  EXPECT_DOUBLE_EQ(resp->infer_ms, infer_sum);
  EXPECT_DOUBLE_EQ(resp->identify_ms, identify_sum);
  EXPECT_GE(resp->wall_ms, 0.0);
  // Histories absorbed every event even though work was coalesced.
  EXPECT_EQ(engine.History({11})->items.size(),
            split_->TrainSequence(11).size() + 3);
}

// ------------------------------------------------------- sq8 storage

// An SQ8 engine serves end to end and the memory accounting matches the
// codec arithmetic exactly: code_bytes == rows * (dim + 8), zero fp32
// embedding bytes, while an fp32 twin reports rows * 4 * dim and zero
// code bytes. (The >=3x reduction pin lives in index_test at dim 32;
// this fixture's dim-16 model would only give 2.67x.)
TEST_F(EngineTest, Sq8EngineServesAndAccountsMemory) {
  Engine::Options sq8_opts = BaseOptions();
  sq8_opts.storage = quant::Storage::kSq8;
  Engine sq8(*fism_, sq8_opts);
  ASSERT_TRUE(sq8.BootstrapFromSplit(*split_).ok());

  Engine fp32(*fism_, BaseOptions());
  ASSERT_TRUE(fp32.BootstrapFromSplit(*split_).ok());

  auto resp = sq8.Ingest({ShuffledEventLog()});
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(sq8.Compact().ok());

  // Serving paths all work on int8 codes.
  auto nbrs = sq8.Neighbors({3, std::nullopt});
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->neighbors.empty());
  auto recs = sq8.Recommend({3, 10, {}});
  ASSERT_TRUE(recs.ok());
  EXPECT_FALSE(recs->candidates.empty());

  const size_t dim = fism_->embedding_dim();
  size_t rows = 0;
  for (const auto& s : sq8.ShardStats()) rows += s.index_rows;
  EXPECT_GT(rows, 0u);

  const Engine::StatsSnapshot stats = sq8.Stats();
  EXPECT_EQ(stats.embedding_bytes, 0u);
  EXPECT_EQ(stats.code_bytes, rows * (dim + 2 * sizeof(float)));

  const Engine::StatsSnapshot base = fp32.Stats();
  size_t base_rows = 0;
  for (const auto& s : fp32.ShardStats()) base_rows += s.index_rows;
  EXPECT_EQ(base.code_bytes, 0u);
  EXPECT_EQ(base.embedding_bytes, base_rows * dim * sizeof(float));
}

// Staged SQ8 rows (write buffer, scored by the single-row int8 kernel)
// must agree with the compacted index (batch int8 kernels) on ids; the
// batch kernels reassociate the accumulation differently, so scores get
// the same 1e-5 tolerance the fp32 staged tests use.
TEST_F(EngineTest, Sq8StagedMatchesCompacted) {
  Engine::Options opts = BaseOptions();
  opts.storage = quant::Storage::kSq8;
  opts.compaction_threshold = 1 << 20;  // keep everything staged
  Engine engine(*fism_, opts);
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());

  auto resp = engine.Ingest({ShuffledEventLog()});
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(engine.pending_upserts(), 0u);

  const std::vector<int> probes = {0, 3, 11, 29, 5000, 5001};
  std::vector<std::vector<index::Neighbor>> staged;
  for (int user : probes) {
    auto n = engine.Neighbors({user, std::nullopt});
    ASSERT_TRUE(n.ok()) << "user " << user;
    staged.push_back(n->neighbors);
  }

  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.pending_upserts(), 0u);

  for (size_t p = 0; p < probes.size(); ++p) {
    auto n = engine.Neighbors({probes[p], std::nullopt});
    ASSERT_TRUE(n.ok()) << "user " << probes[p];
    ASSERT_EQ(n->neighbors.size(), staged[p].size()) << "user " << probes[p];
    for (size_t i = 0; i < staged[p].size(); ++i) {
      EXPECT_EQ(n->neighbors[i].id, staged[p][i].id)
          << "user " << probes[p] << " rank " << i;
      EXPECT_NEAR(n->neighbors[i].score, staged[p][i].score, 1e-5f)
          << "user " << probes[p] << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace sccf::online
