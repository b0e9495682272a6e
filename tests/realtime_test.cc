#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/realtime.h"
#include "core/user_based.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "models/fism.h"
#include "quant/row_store.h"
#include "util/coding.h"
#include "util/random.h"

namespace sccf::core {
namespace {

class RealTimeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "rt-test";
    cfg.num_users = 120;
    cfg.num_items = 160;
    cfg.num_clusters = 8;
    cfg.min_actions = 10;
    cfg.max_actions = 30;
    cfg.seed = 31;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);

    models::Fism::Options fopts;
    fopts.dim = 16;
    fopts.epochs = 6;
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

  static data::Dataset* dataset_;
  static data::LeaveOneOutSplit* split_;
  static models::Fism* fism_;
};

data::Dataset* RealTimeTest::dataset_ = nullptr;
data::LeaveOneOutSplit* RealTimeTest::split_ = nullptr;
models::Fism* RealTimeTest::fism_ = nullptr;

TEST_F(RealTimeTest, RequiresBootstrap) {
  RealTimeService svc(*fism_, {});
  EXPECT_EQ(svc.OnInteraction(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.Neighbors(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RealTimeTest, BootstrapOnlyOnce) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(svc.Bootstrap({}).code(), StatusCode::kFailedPrecondition);
}

TEST_F(RealTimeTest, OnInteractionReportsTimingsAndGrowsHistory) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  const size_t before = svc.History(3)->size();
  auto timing = svc.OnInteraction(3, 42);
  ASSERT_TRUE(timing.ok());
  EXPECT_GE(timing->infer_ms, 0.0);
  EXPECT_GE(timing->identify_ms, 0.0);
  EXPECT_GT(timing->total_ms(), 0.0);
  EXPECT_EQ(svc.History(3)->size(), before + 1);
  EXPECT_EQ(svc.History(3)->back(), 42);
}

TEST_F(RealTimeTest, RejectsUnknownItem) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(svc.OnInteraction(0, -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      svc.OnInteraction(0, static_cast<int>(dataset_->num_items()) + 5)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST_F(RealTimeTest, ColdStartUserCreatedOnFly) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  const int new_user = 100000;
  ASSERT_TRUE(svc.OnInteraction(new_user, 7).ok());
  ASSERT_TRUE(svc.OnInteraction(new_user, 8).ok());
  EXPECT_EQ(svc.History(new_user)->size(), 2u);
  auto nbrs = svc.Neighbors(new_user);
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->empty());
}

TEST_F(RealTimeTest, NeighborhoodAdaptsToAdoptedTaste) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  // Feed user 0 the full recent history of user 70; with a window of 15
  // the inferred embedding converges to user 70's, so 70 must appear in
  // the fresh neighborhood.
  const auto target = split_->TrainSequence(70);
  const size_t take = std::min<size_t>(target.size(), 15);
  for (size_t i = target.size() - take; i < target.size(); ++i) {
    ASSERT_TRUE(svc.OnInteraction(0, target[i]).ok());
  }
  auto nbrs = svc.Neighbors(0);
  ASSERT_TRUE(nbrs.ok());
  bool found = false;
  for (const auto& nb : *nbrs) found = found || nb.id == 70;
  EXPECT_TRUE(found);
}

TEST_F(RealTimeTest, RecommendUserBasedExcludesOwnHistory) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  auto recs = svc.RecommendUserBased(5, 20);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  const std::vector<int> history = svc.History(5).value();
  for (const auto& rec : *recs) {
    EXPECT_EQ(std::count(history.begin(), history.end(), rec.id), 0)
        << "item " << rec.id << " is in user 5's history";
  }
  // Sorted descending by vote score.
  for (size_t i = 1; i < recs->size(); ++i) {
    EXPECT_GE((*recs)[i - 1].score, (*recs)[i].score);
  }
}

// Eq. 12 counts an item once per neighbor however often the neighbor
// repeats it inside its vote window, and not at all when the neighbor
// holds it only before the window. Random histories over 12 of the
// catalog's items make both cases common; every reply must equal a
// reference built from the neighbors' histories by sort-unique of the
// window, exactly, with 1 and 4 shards.
TEST_F(RealTimeTest, RecommendVotesEachWindowItemOncePerNeighbor) {
  constexpr size_t kWindow = 15;
  Rng rng(9);
  std::vector<RealTimeService::UserState> states(80);
  for (size_t u = 0; u < states.size(); ++u) {
    states[u].user = static_cast<int>(u);
    for (size_t t = 0; t < 16 + u % 15; ++t) {
      states[u].history.push_back(static_cast<int>(rng.Uniform(12)));
    }
  }
  const size_t m = dataset_->num_items();
  for (size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RealTimeService::Options opts;
    opts.beta = 20;
    opts.vote_window = kWindow;
    opts.num_shards = shards;
    RealTimeService svc(*fism_, opts);
    ASSERT_TRUE(svc.Bootstrap(states).ok());

    size_t telling_neighbors = 0;
    for (int user = 0; user < 8; ++user) {
      auto nbrs = svc.Neighbors(user);
      ASSERT_TRUE(nbrs.ok());
      std::vector<float> expected(m, 0.0f);
      for (const index::Neighbor& nb : *nbrs) {
        const std::vector<int> h = *svc.History(nb.id);
        const size_t cut = h.size() - std::min(h.size(), kWindow);
        std::vector<int> votes(h.begin() + cut, h.end());
        std::sort(votes.begin(), votes.end());
        votes.erase(std::unique(votes.begin(), votes.end()), votes.end());
        for (int item : votes) expected[item] += nb.score;
        telling_neighbors +=
            votes.size() < h.size() - cut &&
            std::any_of(h.begin(), h.begin() + cut, [&](int item) {
              return !std::binary_search(votes.begin(), votes.end(), item);
            });
      }
      const CandidateList want = TopNFromScores(expected, m, 0.0f);
      auto got = svc.RecommendUserBased(user, m, 0, /*exclude_seen=*/false);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), want.size()) << "user " << user;
      ASSERT_FALSE(want.empty());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].id, want[i].id) << "user " << user;
        EXPECT_EQ((*got)[i].score, want[i].score) << "user " << user;
      }
    }
    EXPECT_GT(telling_neighbors, 0u);
  }
}

TEST_F(RealTimeTest, HistoryIsStatusOrSnapshot) {
  RealTimeService svc(*fism_, {});
  // Before Bootstrap there is no shard state to read.
  EXPECT_EQ(svc.History(0).status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(svc.History(999999).status().code(), StatusCode::kNotFound);
  // The returned history is a snapshot copy: mutating the service after
  // the call must not affect it (the old API returned a reference into
  // the map, which rehash or concurrent ingest would invalidate).
  auto snapshot = svc.History(3);
  ASSERT_TRUE(snapshot.ok());
  const std::vector<int> before = *snapshot;
  ASSERT_TRUE(svc.OnInteraction(3, 42).ok());
  EXPECT_EQ(*snapshot, before);
  EXPECT_EQ(svc.History(3)->size(), before.size() + 1);
}

// Pins the sharded refactor to the pre-sharding behavior: with the exact
// brute-force backend, a hash-partitioned service (any shard count) must
// produce byte-identical neighborhoods and recommendations to the
// single-shard service, whose code path is the pre-refactor one. Covers
// both the bootstrap state and the state after streaming updates.
TEST_F(RealTimeTest, ShardedMatchesSingleShardExactly) {
  RealTimeService::Options single_opts;
  single_opts.beta = 10;
  single_opts.num_shards = 1;
  RealTimeService::Options sharded_opts = single_opts;
  sharded_opts.num_shards = 7;

  RealTimeService single(*fism_, single_opts);
  RealTimeService sharded(*fism_, sharded_opts);
  ASSERT_TRUE(single.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(sharded.BootstrapFromSplit(*split_).ok());
  ASSERT_EQ(single.num_shards(), 1u);
  ASSERT_EQ(sharded.num_shards(), 7u);
  EXPECT_EQ(single.num_users(), sharded.num_users());

  const auto expect_equal_views = [&](int user) {
    auto n1 = single.Neighbors(user);
    auto n7 = sharded.Neighbors(user);
    ASSERT_TRUE(n1.ok());
    ASSERT_TRUE(n7.ok());
    ASSERT_EQ(n1->size(), n7->size()) << "user " << user;
    for (size_t i = 0; i < n1->size(); ++i) {
      EXPECT_EQ((*n1)[i].id, (*n7)[i].id) << "user " << user << " rank " << i;
      EXPECT_FLOAT_EQ((*n1)[i].score, (*n7)[i].score);
    }
    auto r1 = single.RecommendUserBased(user, 20);
    auto r7 = sharded.RecommendUserBased(user, 20);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r7.ok());
    ASSERT_EQ(r1->size(), r7->size()) << "user " << user;
    for (size_t i = 0; i < r1->size(); ++i) {
      EXPECT_EQ((*r1)[i].id, (*r7)[i].id) << "user " << user << " rank " << i;
      EXPECT_FLOAT_EQ((*r1)[i].score, (*r7)[i].score);
    }
  };

  for (int user = 0; user < 25; ++user) expect_equal_views(user);

  // Stream the same interactions (incl. a cold-start user) through both.
  const std::vector<std::pair<int, int>> stream = {
      {0, 7}, {1, 8}, {70, 9}, {3000, 11}, {3000, 12}, {5, 13}, {0, 14}};
  for (const auto& [user, item] : stream) {
    ASSERT_TRUE(single.OnInteraction(user, item).ok());
    ASSERT_TRUE(sharded.OnInteraction(user, item).ok());
  }
  for (int user : {0, 1, 5, 70, 3000}) expect_equal_views(user);
}

// A tie at the k-th score resolves to the smaller id whatever order the
// candidates arrive in, so a staged upsert and a written-through one give
// the same neighborhood. Users 2, 7 and 9 end with the same one-item
// window {5}, so 2 and 7 tie exactly as 9's nearest neighbor; with
// compaction_threshold 16 user 2 is staged and offered after 7.
TEST_F(RealTimeTest, KthScoreTieIsTheSameStagedOrWrittenThrough) {
  std::vector<RealTimeService::UserState> users(20);
  for (int u = 0; u < 20; ++u) {
    users[u].user = u;
    users[u].history = {10 + u};
  }
  users[7].history = {5};
  users[9].history = {5};
  users[2].history = {6};
  for (size_t threshold : {1u, 16u}) {
    RealTimeService::Options opts;
    opts.infer_window = 1;
    opts.vote_window = 1;
    opts.num_shards = 1;
    opts.beta = 1;
    opts.compaction_threshold = threshold;
    RealTimeService svc(*fism_, opts);
    ASSERT_TRUE(svc.Bootstrap(users).ok());
    ASSERT_TRUE(svc.OnInteraction(2, 5).ok());
    auto nbrs = svc.Neighbors(9, 1);
    ASSERT_TRUE(nbrs.ok());
    ASSERT_EQ(nbrs->size(), 1u);
    EXPECT_EQ((*nbrs)[0].id, 2) << "compaction_threshold " << threshold;
  }
}

// Naive reference for Neighbors(user, beta) on brute-force shards. It
// decodes each shard's export (its indexed rows and its staged rows),
// scores every indexed row with RowStore::ScoreBatch over the same
// 256-row blocks the scan uses and every staged row with RowStore::Score
// as UpsertBuffer does, so each score is bit-for-bit the fan-out's. It
// then drops indexed rows whose id is staged and the querying user, sorts
// everything by (score desc, id asc) and keeps the first beta. No
// selector, floor or shadow logic of the code under test runs.
std::vector<index::Neighbor> NaiveNeighbors(const RealTimeService& svc,
                                            const models::Fism& model,
                                            int user, size_t beta) {
  const RealTimeService::Options& opts = svc.options();
  const size_t d = svc.embedding_dim();
  const bool cosine = opts.metric == index::Metric::kCosine;
  auto history = svc.History(user);
  SCCF_CHECK(history.ok());
  std::vector<float> query(d);
  InferRecent(model, *history, opts.infer_window, query.data());

  std::vector<index::Neighbor> all;
  for (size_t s = 0; s < svc.num_shards(); ++s) {
    std::string payload;
    SCCF_CHECK(svc.ExportShard(s, &payload).ok());
    ByteReader r(payload);
    uint64_t seq = 0, count = 0, len = 0;
    int32_t v = 0;
    SCCF_CHECK(r.ReadFixed64(&seq).ok());
    SCCF_CHECK(r.ReadFixed64(&count).ok());
    for (uint64_t e = 0; e < count; ++e) {
      SCCF_CHECK(r.ReadI32(&v).ok());
      SCCF_CHECK(r.ReadFixed64(&len).ok());
      for (uint64_t i = 0; i < len; ++i) SCCF_CHECK(r.ReadI32(&v).ok());
    }
    std::string_view blob;
    SCCF_CHECK(r.ReadLengthPrefixed(&blob).ok());
    uint64_t num_staged = 0;
    SCCF_CHECK(r.ReadFixed64(&num_staged).ok());
    quant::RowStore staged(d, opts.storage, cosine);
    std::vector<int> staged_ids;
    for (uint64_t i = 0; i < num_staged; ++i) {
      std::vector<float> row;
      SCCF_CHECK(r.ReadI32(&v).ok());
      SCCF_CHECK(r.ReadFloats(d, &row).ok());
      staged_ids.push_back(v);
      staged.Append(row.data());
    }

    ByteReader b(blob);
    uint8_t tag = 0, storage = 0, ids_are_slots = 0;
    uint64_t dim = 0, rows = 0;
    SCCF_CHECK(b.ReadU8(&tag).ok() && tag == 'B');
    SCCF_CHECK(b.ReadU8(&storage).ok());
    SCCF_CHECK(b.ReadU8(&ids_are_slots).ok());
    SCCF_CHECK(b.ReadFixed64(&dim).ok() && dim == d);
    SCCF_CHECK(b.ReadFixed64(&rows).ok());
    std::vector<int> ids(rows);
    for (uint64_t i = 0; i < rows; ++i) SCCF_CHECK(b.ReadI32(&ids[i]).ok());
    quant::RowStore indexed(d, opts.storage, cosine);
    SCCF_CHECK(indexed.ReadMatrix(&b, rows).ok());

    const quant::RowStore::Query iq = indexed.PrepareQuery(query.data());
    std::vector<float> scores(rows);
    for (size_t lo = 0; lo < rows; lo += 256) {
      const size_t n = std::min<size_t>(256, rows - lo);
      indexed.ScoreBatch(iq, lo, n, scores.data() + lo);
    }
    for (size_t i = 0; i < rows; ++i) {
      const bool shadowed = std::find(staged_ids.begin(), staged_ids.end(),
                                      ids[i]) != staged_ids.end();
      if (ids[i] != user && !shadowed) all.push_back({ids[i], scores[i]});
    }
    const quant::RowStore::Query sq = staged.PrepareQuery(query.data());
    for (size_t i = 0; i < staged_ids.size(); ++i) {
      if (staged_ids[i] != user) {
        all.push_back({staged_ids[i], staged.Score(sq, i)});
      }
    }
  }
  std::sort(all.begin(), all.end(),
            [](const index::Neighbor& a, const index::Neighbor& b) {
              return a.score != b.score ? a.score > b.score : a.id < b.id;
            });
  if (all.size() > beta) all.resize(beta);
  return all;
}

// The fan-out offers every shard's rows straight into one selector, with
// each shard's write buffer as the shadow set. Neighbors must equal the
// naive reference above id for id and score for score, over 1, 3 and 4
// shards, fp32 and sq8, written through and staged behind a threshold no
// batch reaches. The cases are built in: user 1's stale indexed row is
// the query itself (it would rank first, but its staged row must win);
// the querying user 0 is staged too and must never appear; and users
// 2..6 hold identical staged rows, so beta is cut inside their tie.
TEST_F(RealTimeTest, NeighborsMatchNaiveReferenceOverStagedAndIndexedRows) {
  constexpr int kQuery = 0, kStale = 1, kTieFirst = 2, kTieLast = 6;
  const std::vector<int> fresh = {11, 12, 13};  // query's last 3 items
  std::vector<RealTimeService::UserState> users(split_->num_users());
  for (size_t u = 0; u < users.size(); ++u) {
    users[u].user = static_cast<int>(u);
    const auto h = split_->TrainSequence(u);
    users[u].history.assign(h.begin(), h.end());
  }
  // The stale row: user 1 bootstraps with the query's final window.
  users[kStale].history.insert(users[kStale].history.end(), fresh.begin(),
                               fresh.end());
  std::vector<RealTimeService::Event> events;
  int64_t ts = 0;
  for (int item : fresh) events.push_back({kQuery, item, ts++});
  for (int item : {40, 41, 42}) events.push_back({kStale, item, ts++});
  for (int u = kTieFirst; u <= kTieLast; ++u) {
    for (int item : {70, 71, 72}) events.push_back({u, item, ts++});
  }
  for (int u = 7; u < 40; u += 3) events.push_back({u, u + 20, ts++});

  for (size_t shards : {1u, 3u, 4u}) {
    for (quant::Storage storage :
         {quant::Storage::kFp32, quant::Storage::kSq8}) {
      for (size_t threshold : {1u, 1000000u}) {
        SCOPED_TRACE(testing::Message()
                     << "shards " << shards << " storage "
                     << quant::StorageName(storage) << " threshold "
                     << threshold);
        RealTimeService::Options opts;
        opts.infer_window = 3;
        opts.num_shards = shards;
        opts.storage = storage;
        opts.compaction_threshold = threshold;
        RealTimeService svc(*fism_, opts);
        ASSERT_TRUE(svc.Bootstrap(users).ok());
        ASSERT_TRUE(svc.OnInteractionBatch(events, /*identify=*/false).ok());
        const bool staged = threshold > 1;
        EXPECT_EQ(svc.pending_upserts() > 0, staged);

        const std::vector<index::Neighbor> full =
            NaiveNeighbors(svc, *fism_, kQuery, users.size());
        ASSERT_EQ(full.size(), users.size() - 1);
        // Cut beta two places into the tie group; staged rows are scored
        // by one kernel, so the tie is exact there.
        size_t first_tie = full.size();
        for (size_t i = 0; i < full.size(); ++i) {
          if (full[i].id >= kTieFirst && full[i].id <= kTieLast) {
            first_tie = i;
            break;
          }
        }
        ASSERT_LT(first_tie + 2, full.size());
        const size_t cut = first_tie + 2;
        if (staged) {
          ASSERT_EQ(full[cut - 1].score, full[cut].score);
          EXPECT_NE(full[0].id, kStale);
        }
        for (size_t beta : {size_t{1}, size_t{10}, cut, full.size()}) {
          auto got = svc.Neighbors(kQuery, beta);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const std::vector<index::Neighbor> want =
              NaiveNeighbors(svc, *fism_, kQuery, beta);
          ASSERT_EQ(got->size(), want.size()) << "beta " << beta;
          std::set<int> seen;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ((*got)[i].id, want[i].id)
                << "beta " << beta << " rank " << i;
            EXPECT_EQ(std::memcmp(&(*got)[i].score, &want[i].score,
                                  sizeof(float)),
                      0)
                << "beta " << beta << " rank " << i;
            EXPECT_TRUE(seen.insert((*got)[i].id).second)
                << "duplicate id " << (*got)[i].id;
            EXPECT_NE((*got)[i].id, kQuery);
          }
        }
      }
    }
  }
}

TEST_F(RealTimeTest, UnknownUserNeighborsIsNotFound) {
  RealTimeService svc(*fism_, {});
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  EXPECT_EQ(svc.Neighbors(999999).status().code(), StatusCode::kNotFound);
}

TEST_F(RealTimeTest, WorksWithHnswBackend) {
  RealTimeService::Options opts;
  opts.index_kind = IndexKind::kHnsw;
  RealTimeService svc(*fism_, opts);
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(svc.OnInteraction(1, 3).ok());
  auto nbrs = svc.Neighbors(1);
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->empty());
}

TEST_F(RealTimeTest, WorksWithIvfBackend) {
  RealTimeService::Options opts;
  opts.index_kind = IndexKind::kIvfFlat;
  opts.ivf.nlist = 8;
  opts.ivf.nprobe = 4;
  RealTimeService svc(*fism_, opts);
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  ASSERT_TRUE(svc.OnInteraction(1, 3).ok());
  auto nbrs = svc.Neighbors(1);
  ASSERT_TRUE(nbrs.ok());
  EXPECT_FALSE(nbrs->empty());
}

// Streaming-vs-batch equivalence (deterministic): feeding a cold-start
// user through OnInteraction must create state, refresh the index, and
// land in exactly the neighborhood a from-scratch Bootstrap of the same
// histories produces. IVF probes every list and HNSW gets a generous beam
// so both backends are exhaustive at this scale; any divergence between
// the incremental and batch paths is then a real bug, not ANN noise.
TEST_F(RealTimeTest, ColdStartMatchesFromScratchBootstrap) {
  constexpr int kColdUser = 500;
  constexpr size_t kBeta = 10;
  const std::vector<int> cold_history = {7, 8, 9, 42, 43};

  const auto options_for = [](IndexKind kind) {
    RealTimeService::Options opts;
    opts.beta = kBeta;
    opts.index_kind = kind;
    opts.ivf.nlist = 4;
    opts.ivf.nprobe = 4;  // scan every list: exhaustive
    opts.hnsw.ef_search = 256;
    return opts;
  };

  std::vector<int> top1_per_backend;
  for (IndexKind kind :
       {IndexKind::kBruteForce, IndexKind::kHnsw, IndexKind::kIvfFlat}) {
    // Incremental: bootstrap the corpus, then stream the cold user in.
    RealTimeService streamed(*fism_, options_for(kind));
    ASSERT_TRUE(streamed.BootstrapFromSplit(*split_).ok());
    const size_t users_before = streamed.num_users();
    for (int item : cold_history) {
      ASSERT_TRUE(streamed.OnInteraction(kColdUser, item).ok());
    }
    EXPECT_EQ(streamed.num_users(), users_before + 1);
    EXPECT_EQ(streamed.History(kColdUser)->size(), cold_history.size());

    // Batch: one Bootstrap over the identical final histories.
    std::vector<RealTimeService::UserState> states(split_->num_users());
    for (size_t u = 0; u < split_->num_users(); ++u) {
      states[u].user = static_cast<int>(u);
      const auto h = split_->TrainSequence(u);
      states[u].history.assign(h.begin(), h.end());
    }
    states.push_back({kColdUser, cold_history});
    RealTimeService batch(*fism_, options_for(kind));
    ASSERT_TRUE(batch.Bootstrap(states).ok());

    auto streamed_nbrs = streamed.Neighbors(kColdUser);
    auto batch_nbrs = batch.Neighbors(kColdUser);
    ASSERT_TRUE(streamed_nbrs.ok());
    ASSERT_TRUE(batch_nbrs.ok());
    ASSERT_EQ(streamed_nbrs->size(), batch_nbrs->size());
    for (size_t i = 0; i < streamed_nbrs->size(); ++i) {
      EXPECT_EQ((*streamed_nbrs)[i].id, (*batch_nbrs)[i].id)
          << "backend " << static_cast<int>(kind) << " rank " << i;
      EXPECT_FLOAT_EQ((*streamed_nbrs)[i].score, (*batch_nbrs)[i].score);
    }
    ASSERT_FALSE(streamed_nbrs->empty());
    top1_per_backend.push_back((*streamed_nbrs)[0].id);
  }

  // Brute force vs HNSW vs IVF agree on the nearest neighbor.
  ASSERT_EQ(top1_per_backend.size(), 3u);
  EXPECT_EQ(top1_per_backend[0], top1_per_backend[1]);
  EXPECT_EQ(top1_per_backend[0], top1_per_backend[2]);
}

/// Records every journal append; appends for `fail_shard` fail instead.
class RecordingSink : public IngestSink {
 public:
  struct Record {
    size_t shard = 0;
    uint64_t seq = 0;
    std::vector<RealTimeService::Event> events;
  };
  Status Append(size_t shard, uint64_t seq,
                std::span<const RealTimeService::Event> events) override {
    if (shard == fail_shard) return Status::IoError("injected append failure");
    records.push_back({shard, seq, {events.begin(), events.end()}});
    return Status::OK();
  }
  std::vector<Record> records;
  size_t fail_shard = SIZE_MAX;
};

/// Holds shard 0's append until `release` is set; other shards pass.
class BlockingSink : public IngestSink {
 public:
  Status Append(size_t shard, uint64_t,
                std::span<const RealTimeService::Event>) override {
    if (shard == 0) {
      entered.set_value();
      released.wait();
    }
    return Status::OK();
  }
  std::promise<void> entered;
  std::promise<void> release;
  std::future<void> released = release.get_future();
};

/// Forwards to a fitted model and counts InferUserEmbedding calls.
class CountingModel : public models::InductiveUiModel {
 public:
  explicit CountingModel(const models::InductiveUiModel& inner)
      : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  Status Fit(const data::LeaveOneOutSplit&) override { return Status::OK(); }
  size_t embedding_dim() const override { return inner_->embedding_dim(); }
  void InferUserEmbedding(std::span<const int> history,
                          float* out) const override {
    infer_calls.fetch_add(1, std::memory_order_relaxed);
    inner_->InferUserEmbedding(history, out);
  }
  const float* ItemEmbedding(int item) const override {
    return inner_->ItemEmbedding(item);
  }
  size_t num_items() const override { return inner_->num_items(); }

  mutable std::atomic<size_t> infer_calls{0};

 private:
  const models::InductiveUiModel* inner_;
};

// Shards ingest independently: while one ingest holds shard 0's write
// lock (its journal append is parked), an ingest on shard 1 completes.
// A lock shared across shards would park it too; the wait is bounded so
// that fails the test instead of hanging it.
TEST_F(RealTimeTest, IngestOnOneShardDoesNotWaitForAnother) {
  RealTimeService::Options opts;
  opts.beta = 10;
  opts.num_shards = 4;
  RealTimeService svc(*fism_, opts);
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  int on_shard[2] = {-1, -1};
  for (int u = 0; on_shard[0] < 0 || on_shard[1] < 0; ++u) {
    const size_t s = svc.ShardOf(u);
    if (s < 2 && on_shard[s] < 0) on_shard[s] = u;
  }
  BlockingSink sink;
  svc.set_ingest_sink(&sink);

  auto blocked = std::async(std::launch::async, [&] {
    return svc.OnInteraction(on_shard[0], 1).status();
  });
  const std::chrono::seconds kGenerous(30);
  EXPECT_EQ(sink.entered.get_future().wait_for(kGenerous),
            std::future_status::ready);
  const RealTimeService::Event other{on_shard[1], 2, 0};
  auto independent = std::async(std::launch::async, [&] {
    return svc.OnInteractionBatch(std::span(&other, 1), /*identify=*/false)
        .status();
  });
  const bool finished =
      independent.wait_for(kGenerous) == std::future_status::ready;
  sink.release.set_value();
  EXPECT_TRUE(finished) << "shard 1 ingest waited for shard 0's lock";
  EXPECT_TRUE(independent.get().ok());
  EXPECT_TRUE(blocked.get().ok());
  EXPECT_EQ(svc.History(on_shard[1])->back(), 2);
  EXPECT_EQ(svc.History(on_shard[0])->back(), 1);
}

// Batching coalesces the per-user work: one 32-event batch of 8 users x
// 4-event runs re-infers each user once and journals each touched shard
// once; the same events sent one at a time pay one of each per event.
TEST_F(RealTimeTest, BatchInfersOncePerUserAndJournalsOncePerShard) {
  CountingModel model(*fism_);
  RealTimeService::Options opts;
  opts.beta = 10;
  opts.num_shards = 4;
  const int num_items = static_cast<int>(dataset_->num_items());
  std::vector<RealTimeService::Event> batch;
  for (int u = 0; u < 8; ++u) {
    for (int step = 0; step < 4; ++step) {
      batch.push_back({u, (u * 11 + step) % num_items, step});
    }
  }
  for (const bool one_at_a_time : {false, true}) {
    SCOPED_TRACE(one_at_a_time ? "one at a time" : "one batch");
    RealTimeService svc(model, opts);
    ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
    RecordingSink sink;
    svc.set_ingest_sink(&sink);
    std::set<size_t> shards;
    for (const auto& e : batch) shards.insert(svc.ShardOf(e.user));
    ASSERT_GE(shards.size(), 2u);
    model.infer_calls = 0;
    if (one_at_a_time) {
      for (const auto& e : batch) {
        ASSERT_TRUE(svc.OnInteractionBatch(std::span(&e, 1)).ok());
      }
    } else {
      ASSERT_TRUE(svc.OnInteractionBatch(batch).ok());
    }
    EXPECT_EQ(model.infer_calls.load(), one_at_a_time ? 32u : 8u);
    EXPECT_EQ(sink.records.size(), one_at_a_time ? 32u : shards.size());
  }
}

// The ordering one ingest batch promises: each shard's journal record holds
// exactly that shard's events in batch order, under the shard's previous
// sequence number + 1; a failed append leaves its shard unchanged; and a
// user's costs land on its last event of the batch, with every earlier
// event reading 0.
TEST_F(RealTimeTest, BatchJournalsShardGroupsInBatchOrder) {
  using Event = RealTimeService::Event;
  RealTimeService::Options opts;
  opts.beta = 10;
  opts.num_shards = 4;
  RealTimeService svc(*fism_, opts);
  ASSERT_TRUE(svc.BootstrapFromSplit(*split_).ok());
  RecordingSink sink;
  svc.set_ingest_sink(&sink);

  // One bootstrap user from each of three shards, plus a cold start.
  std::vector<int> picked;
  std::vector<size_t> picked_shards;
  for (int u = 0; picked.size() < 3; ++u) {
    if (std::find(picked_shards.begin(), picked_shards.end(),
                  svc.ShardOf(u)) != picked_shards.end()) {
      continue;
    }
    picked.push_back(u);
    picked_shards.push_back(svc.ShardOf(u));
  }
  const int a = picked[0], b = picked[1], c = picked[2], cold = 9000;
  ASSERT_FALSE(svc.History(cold).ok());
  const std::vector<Event> batch = {{a, 1, 0},    {b, 2, 0}, {cold, 3, 0},
                                    {a, 4, 1},    {c, 5, 0}, {b, 6, 1},
                                    {cold, 7, 1}, {a, 8, 2}, {c, 9, 1}};

  const auto expect_records_in_batch_order = [&](size_t first_record,
                                                 uint64_t seq) {
    size_t groups = 0;
    for (size_t s = 0; s < svc.num_shards(); ++s) {
      std::vector<Event> expected;
      for (const Event& e : batch) {
        if (svc.ShardOf(e.user) == s) expected.push_back(e);
      }
      if (expected.empty()) continue;
      ++groups;
      size_t found = 0;
      for (size_t r = first_record; r < sink.records.size(); ++r) {
        const RecordingSink::Record& rec = sink.records[r];
        if (rec.shard != s) continue;
        ++found;
        EXPECT_EQ(rec.seq, seq) << "shard " << s;
        ASSERT_EQ(rec.events.size(), expected.size()) << "shard " << s;
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(rec.events[i].user, expected[i].user);
          EXPECT_EQ(rec.events[i].item, expected[i].item);
          EXPECT_EQ(rec.events[i].ts, expected[i].ts);
        }
      }
      EXPECT_EQ(found, 1u) << "shard " << s;
    }
    EXPECT_EQ(sink.records.size() - first_record, groups);
    EXPECT_GE(groups, 3u);
  };

  for (uint64_t round = 1; round <= 2; ++round) {
    const size_t first_record = sink.records.size();
    auto result = svc.OnInteractionBatch(batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expect_records_in_batch_order(first_record, round);
    EXPECT_EQ(result->users_touched, 4u);
    EXPECT_EQ(result->cold_start_users, round == 1 ? 1u : 0u);
    ASSERT_EQ(result->timings.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      bool is_last = true;
      for (size_t j = i + 1; j < batch.size(); ++j) {
        is_last = is_last && batch[j].user != batch[i].user;
      }
      const RealTimeService::UpdateTiming& t = result->timings[i];
      if (is_last) {
        EXPECT_GT(t.infer_ms, 0.0) << "position " << i;
        EXPECT_GT(t.identify_ms, 0.0) << "position " << i;
      } else {
        EXPECT_EQ(t.infer_ms, 0.0) << "position " << i;
        EXPECT_EQ(t.index_ms, 0.0) << "position " << i;
        EXPECT_EQ(t.identify_ms, 0.0) << "position " << i;
      }
    }
  }
  EXPECT_EQ(*svc.History(cold), (std::vector<int>{3, 7, 3, 7}));

  // A failing append for c's shard cuts the batch short there and leaves
  // that shard exactly as it was.
  const size_t failing = svc.ShardOf(c);
  std::vector<std::vector<int>> histories_before;
  std::vector<int> failing_users;
  for (int user : {a, b, c, cold}) {
    if (svc.ShardOf(user) != failing) continue;
    failing_users.push_back(user);
    histories_before.push_back(*svc.History(user));
  }
  const uint64_t seq_before = svc.ShardJournalSeq(failing);
  const size_t users_before = svc.ShardSizes()[failing];
  sink.fail_shard = failing;
  EXPECT_EQ(svc.OnInteractionBatch(batch).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(svc.ShardJournalSeq(failing), seq_before);
  EXPECT_EQ(svc.ShardSizes()[failing], users_before);
  for (size_t i = 0; i < failing_users.size(); ++i) {
    EXPECT_EQ(*svc.History(failing_users[i]), histories_before[i]);
  }
  for (const RecordingSink::Record& rec : sink.records) {
    if (rec.shard == failing) {
      EXPECT_LE(rec.seq, seq_before);
    }
  }
}

}  // namespace
}  // namespace sccf::core
