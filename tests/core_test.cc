#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/candidates.h"
#include "core/integrating.h"
#include "core/sccf.h"
#include "core/user_based.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/fism.h"
#include "util/random.h"

namespace sccf::core {
namespace {

// Eq. 12 by its definition: each neighbor adds its similarity once to
// every distinct item among the last `window` items of its training
// history.
std::vector<float> ReferenceVotes(const std::vector<index::Neighbor>& nbrs,
                                  const data::LeaveOneOutSplit& split,
                                  size_t window) {
  std::vector<float> scores(split.dataset().num_items(), 0.0f);
  for (const auto& nb : nbrs) {
    const std::span<const int> h = split.TrainSequence(nb.id);
    std::vector<int> votes(h.end() - std::min(h.size(), window), h.end());
    std::sort(votes.begin(), votes.end());
    votes.erase(std::unique(votes.begin(), votes.end()), votes.end());
    for (int item : votes) scores[item] += nb.score;
  }
  return scores;
}

// True when `history` repeats an item inside its last `window` items and
// holds some other item only before them.
bool RepeatsAndHoldsOlderItem(std::span<const int> history, size_t window) {
  const size_t cut = history.size() - std::min(history.size(), window);
  std::vector<int> recent(history.begin() + cut, history.end());
  std::sort(recent.begin(), recent.end());
  const bool repeats =
      std::adjacent_find(recent.begin(), recent.end()) != recent.end();
  const bool older = std::any_of(
      history.begin(), history.begin() + cut, [&](int item) {
        return !std::binary_search(recent.begin(), recent.end(), item);
      });
  return repeats && older;
}

// ----------------------------------------------------------- candidates

TEST(CandidatesTest, TopNFromScores) {
  std::vector<float> scores = {0.1f, 0.9f, -1e30f, 0.5f, 0.9f};
  auto top = TopNFromScores(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 1);  // ties broken by ascending id
  EXPECT_EQ(top[1].id, 4);
  EXPECT_EQ(top[2].id, 3);
}

TEST(CandidatesTest, TopNRespectsFloor) {
  std::vector<float> scores = {0.0f, 0.2f, 0.0f};
  auto top = TopNFromScores(scores, 3, /*floor=*/0.0f);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 1);
}

TEST(CandidatesTest, MomentsOverItems) {
  std::vector<float> scores = {1.0f, 2.0f, 3.0f, 100.0f};
  auto m = MomentsOver(scores, {0, 1, 2});
  EXPECT_FLOAT_EQ(m.mean, 2.0f);
  EXPECT_NEAR(m.stddev, std::sqrt(2.0f / 3.0f), 1e-5);
}

TEST(CandidatesTest, MomentsZeroStdReportsOne) {
  std::vector<float> scores = {5.0f, 5.0f};
  auto m = MomentsOver(scores, {0, 1});
  EXPECT_FLOAT_EQ(m.mean, 5.0f);
  EXPECT_FLOAT_EQ(m.stddev, 1.0f);
  auto empty = MomentsOver(scores, {});
  EXPECT_FLOAT_EQ(empty.stddev, 1.0f);
}

// ----------------------------------------------- shared trained fixture

class CoreTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "core-test";
    cfg.num_users = 150;
    cfg.num_items = 180;
    cfg.num_clusters = 12;
    cfg.min_actions = 12;
    cfg.max_actions = 40;
    cfg.seed = 77;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);

    models::Fism::Options fopts;
    fopts.dim = 16;
    fopts.epochs = 8;
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

data::Dataset* CoreTest::dataset_ = nullptr;
data::LeaveOneOutSplit* CoreTest::split_ = nullptr;
models::Fism* CoreTest::fism_ = nullptr;

// ---------------------------------------------------- UserBasedComponent

TEST_F(CoreTest, UserBasedRequiresFittedBase) {
  models::Fism unfitted;
  UserBasedComponent uu(unfitted, {});
  EXPECT_EQ(uu.Fit(*split_).code(), StatusCode::kFailedPrecondition);
}

TEST_F(CoreTest, NeighborsExcludeSelf) {
  UserBasedComponent::Options opts;
  opts.beta = 10;
  UserBasedComponent uu(*fism_, opts);
  ASSERT_TRUE(uu.Fit(*split_).ok());
  std::vector<float> emb(fism_->embedding_dim(), 0.0f);
  fism_->InferUserEmbedding(split_->TrainSequence(5), emb.data());
  auto nbrs = uu.Neighbors(emb.data(), 10, /*exclude_user=*/5);
  ASSERT_EQ(nbrs.size(), 10u);
  for (const auto& nb : nbrs) EXPECT_NE(nb.id, 5);
  // Neighbors sorted by descending similarity.
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_GE(nbrs[i - 1].score, nbrs[i].score);
  }
}

TEST_F(CoreTest, UserBasedScoresExcludeOwnHistory) {
  UserBasedComponent uu(*fism_, {});
  ASSERT_TRUE(uu.Fit(*split_).ok());
  const auto history = split_->TrainSequence(3);
  std::vector<float> scores;
  uu.ScoreAll(3, history, &scores);
  for (int item : history) EXPECT_EQ(scores[item], 0.0f);
  size_t positive = 0;
  for (float s : scores) positive += s > 0.0f;
  EXPECT_GT(positive, 0u);
}

TEST_F(CoreTest, UserBasedScoresAreNeighborVoteSums) {
  UserBasedComponent::Options opts;
  opts.beta = 5;
  UserBasedComponent uu(*fism_, opts);
  ASSERT_TRUE(uu.Fit(*split_).ok());
  const size_t u = 7;
  const auto history = split_->TrainSequence(u);
  std::vector<float> scores;
  uu.ScoreAll(u, history, &scores);

  // Recompute Eq. 12 by hand.
  std::vector<float> emb(fism_->embedding_dim(), 0.0f);
  const size_t take = std::min<size_t>(history.size(), 15);
  fism_->InferUserEmbedding(history.subspan(history.size() - take, take),
                            emb.data());
  auto nbrs = uu.Neighbors(emb.data(), 5, static_cast<int>(u));
  std::vector<float> expected = ReferenceVotes(nbrs, *split_, 15);
  for (int item : history) expected[item] = 0.0f;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(scores[i], expected[i]) << "item " << i;
  }
}

// Random histories over a 12-item catalog: every 15-item vote window
// repeats an item, and most users hold some item only before their
// window. A neighbor must vote once for a repeated item and never for an
// item it holds only before the window. Each query is a user's last
// three items, so the own-history mask leaves most items scored.
TEST(UserBasedVoteTest, RepeatedItemsVoteOncePerNeighborWindow) {
  Rng rng(5);
  std::vector<data::Interaction> log;
  for (int u = 0; u < 40; ++u) {
    for (int t = 0; t < 22 + u % 9; ++t) {
      log.push_back({u, static_cast<int>(rng.Uniform(12)), t});
    }
  }
  auto ds = data::Dataset::FromInteractions("repeats", std::move(log));
  ASSERT_TRUE(ds.ok());
  const data::LeaveOneOutSplit split(*ds);
  models::Fism::Options fopts;
  fopts.dim = 8;
  fopts.epochs = 2;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(split).ok());

  UserBasedComponent::Options opts;
  opts.beta = 10;
  UserBasedComponent uu(fism, opts);
  ASSERT_TRUE(uu.Fit(split).ok());

  size_t telling_neighbors = 0;
  size_t scored = 0;
  for (size_t u = 0; u < split.num_users(); ++u) {
    const auto history = split.TrainSequence(u).last(3);
    std::vector<float> scores;
    uu.ScoreAll(u, history, &scores);

    std::vector<float> emb(fism.embedding_dim(), 0.0f);
    InferRecent(fism, history, opts.infer_window, emb.data());
    const auto nbrs = uu.Neighbors(emb.data(), opts.beta,
                                   static_cast<int>(u));
    std::vector<float> expected = ReferenceVotes(nbrs, split, 15);
    for (int item : history) expected[item] = 0.0f;
    ASSERT_EQ(scores.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(scores[i], expected[i]) << "user " << u << " item " << i;
      scored += expected[i] != 0.0f;
    }
    for (const auto& nb : nbrs) {
      telling_neighbors +=
          RepeatsAndHoldsOlderItem(split.TrainSequence(nb.id), 15);
    }
  }
  EXPECT_GT(telling_neighbors, 0u);
  EXPECT_GT(scored, 0u);
}

TEST_F(CoreTest, IndexBackendsAgreeOnTopNeighbor) {
  for (IndexKind kind :
       {IndexKind::kBruteForce, IndexKind::kIvfFlat, IndexKind::kHnsw}) {
    UserBasedComponent::Options opts;
    opts.beta = 20;
    opts.index_kind = kind;
    opts.ivf.nlist = 8;
    opts.ivf.nprobe = 8;  // exhaustive => exact
    UserBasedComponent uu(*fism_, opts);
    ASSERT_TRUE(uu.Fit(*split_).ok());
    std::vector<float> scores;
    uu.ScoreAll(2, split_->TrainSequence(2), &scores);
    size_t positive = 0;
    for (float s : scores) positive += s > 0.0f;
    EXPECT_GT(positive, 0u) << "index kind " << static_cast<int>(kind);
  }
}

// A corpus smaller than IVF's default nlist (64): Fit clamps nlist to the
// population, as the serving shards do, instead of failing to train.
TEST(UserBasedSmallCorpusTest, IvfFitsAndServesFortyUsers) {
  data::SyntheticConfig cfg;
  cfg.name = "forty-users";
  cfg.num_users = 40;
  cfg.num_items = 60;
  cfg.num_clusters = 4;
  cfg.min_actions = 8;
  cfg.max_actions = 16;
  cfg.seed = 5;
  auto ds = data::SyntheticGenerator(cfg).Generate();
  ASSERT_TRUE(ds.ok());
  const data::LeaveOneOutSplit split(*ds);
  models::Fism::Options fopts;
  fopts.dim = 8;
  fopts.epochs = 2;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(split).ok());

  UserBasedComponent::Options opts;
  opts.beta = 10;
  opts.index_kind = IndexKind::kIvfFlat;
  ASSERT_EQ(opts.ivf.nlist, 64u);
  UserBasedComponent uu(fism, opts);
  const Status fit = uu.Fit(split);
  ASSERT_TRUE(fit.ok()) << fit.ToString();
  EXPECT_EQ(uu.index().size(), 40u);
  std::vector<float> scores;
  uu.ScoreAll(3, split.TrainSequence(3), &scores);
  size_t positive = 0;
  for (float s : scores) positive += s > 0.0f;
  EXPECT_GT(positive, 0u);
}

// --------------------------------------------------------- IntegratingMlp

IntegratingMlp::UserBatch MakeBatch(Rng& rng, size_t c, size_t dim,
                                    int positive) {
  IntegratingMlp::UserBatch b;
  b.features = Tensor::Zeros({c, dim});
  for (size_t i = 0; i < b.features.size(); ++i) {
    b.features[i] = rng.Normal();
  }
  // Plant a signal: the positive row's last feature is large.
  for (size_t r = 0; r < c; ++r) {
    b.features.at(r, dim - 1) = r == static_cast<size_t>(positive) ? 2.0f
                                                                   : -2.0f;
  }
  b.positive_row = positive;
  return b;
}

TEST(IntegratingMlpTest, LearnsPlantedSignal) {
  Rng rng(5);
  const size_t dim = 6;
  IntegratingMlp::Options opts;
  opts.hidden = {8};
  opts.max_epochs = 30;
  IntegratingMlp mlp(dim, opts);
  std::vector<IntegratingMlp::UserBatch> batches;
  for (int i = 0; i < 40; ++i) {
    batches.push_back(MakeBatch(rng, 10, dim, i % 10));
  }
  ASSERT_TRUE(mlp.Train(batches).ok());
  EXPECT_TRUE(mlp.trained());

  // On a fresh batch the positive row must get the top score.
  auto test = MakeBatch(rng, 10, dim, 4);
  std::vector<float> out;
  mlp.Predict(test.features, &out);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(std::max_element(out.begin(), out.end()) - out.begin(), 4);
}

TEST(IntegratingMlpTest, RejectsEmptyAndMalformed) {
  IntegratingMlp mlp(4, {});
  EXPECT_EQ(mlp.Train({}).code(), StatusCode::kFailedPrecondition);

  Rng rng(7);
  auto bad_dim = MakeBatch(rng, 3, 5, 0);  // wrong feature dim
  EXPECT_EQ(mlp.Train({bad_dim}).code(), StatusCode::kInvalidArgument);

  auto bad_row = MakeBatch(rng, 3, 4, 0);
  bad_row.positive_row = 7;
  EXPECT_EQ(mlp.Train({bad_row}).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ Sccf

TEST_F(CoreTest, SccfRequiresFittedBase) {
  models::Fism unfitted;
  Sccf sccf(unfitted, {});
  EXPECT_EQ(sccf.Fit(*split_).code(), StatusCode::kFailedPrecondition);
}

TEST_F(CoreTest, SccfEndToEndImprovesOverBase) {
  Sccf::Options opts;
  opts.num_candidates = 50;
  opts.user_based.beta = 30;
  opts.merger.max_epochs = 20;
  Sccf sccf(*fism_, opts);
  ASSERT_TRUE(sccf.Fit(*split_).ok());
  EXPECT_EQ(sccf.name(), "FISM-SCCF");

  eval::EvalOptions eopts;
  eopts.cutoffs = {20, 50};
  auto base = eval::Evaluate(*fism_, *split_, eopts);
  auto merged = eval::Evaluate(sccf, *split_, eopts);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(merged.ok());
  // The paper's central claim at test scale: SCCF >= its UI base (allow a
  // tiny tolerance for the stochastic merger).
  EXPECT_GE(merged->NdcgAt(50), base->NdcgAt(50) * 0.95);
  EXPECT_GT(merged->NdcgAt(50), 0.0);
}

TEST_F(CoreTest, SccfScoresOnlyCandidateUnion) {
  Sccf::Options opts;
  opts.num_candidates = 20;
  opts.merger.max_epochs = 5;
  Sccf sccf(*fism_, opts);
  ASSERT_TRUE(sccf.Fit(*split_).ok());
  std::vector<float> scores;
  const auto history = split_->TrainPlusValidSequence(4);
  sccf.ScoreAll(4, history, &scores);
  size_t scored = 0;
  for (float s : scores) scored += s > -1e29f;
  EXPECT_GT(scored, 0u);
  EXPECT_LE(scored, 40u);  // at most |C_UI| + |C_UU|
}

TEST_F(CoreTest, SccfCandidateListsHaveExpectedSizes) {
  Sccf::Options opts;
  opts.num_candidates = 25;
  opts.merger.max_epochs = 5;
  Sccf sccf(*fism_, opts);
  ASSERT_TRUE(sccf.Fit(*split_).ok());
  auto lists = sccf.CandidateListsFor(6, split_->TrainPlusValidSequence(6));
  EXPECT_EQ(lists.ui.size(), 25u);
  EXPECT_LE(lists.uu.size(), 25u);
  // Both lists sorted descending.
  for (size_t i = 1; i < lists.ui.size(); ++i) {
    EXPECT_GE(lists.ui[i - 1].score, lists.ui[i].score);
  }
}

TEST_F(CoreTest, SccfScoreSumFusionAblation) {
  Sccf::Options opts;
  opts.num_candidates = 50;
  opts.score_sum_fusion = true;  // no merger training required
  Sccf sccf(*fism_, opts);
  ASSERT_TRUE(sccf.Fit(*split_).ok());
  eval::EvalOptions eopts;
  eopts.cutoffs = {50};
  auto r = eval::Evaluate(sccf, *split_, eopts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->NdcgAt(50), 0.0);
}

}  // namespace
}  // namespace sccf::core
