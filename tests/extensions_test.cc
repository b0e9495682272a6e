// Tests for the extension modules: checkpointing, the additional
// inductive models (YouTubeDNN, GRU4Rec), the prequential streaming
// evaluator, and the paper's future-work features (profile-aware
// neighborhoods, ranking-stage SCCF).

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "core/candidates.h"
#include "core/profile_neighborhood.h"
#include "core/rank_stage.h"
#include "online/engine.h"
#include "online/streaming_eval.h"
#include "core/user_based.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "index/brute_force_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_flat_index.h"
#include "models/fism.h"
#include "models/gru4rec.h"
#include "models/pop.h"
#include "models/youtube_dnn.h"
#include "nn/serialize.h"
#include "scenario/scenario.h"

namespace sccf {
namespace {

class ExtensionsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "ext-test";
    cfg.num_users = 140;
    cfg.num_items = 160;
    cfg.num_clusters = 10;
    cfg.min_actions = 10;
    cfg.max_actions = 36;
    cfg.sequential_strength = 0.5;
    cfg.seed = 61;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);
  }
  static void TearDownTestSuite() {
    delete split_;
    delete dataset_;
    split_ = nullptr;
    dataset_ = nullptr;
  }

  static data::Dataset* dataset_;
  static data::LeaveOneOutSplit* split_;
};

data::Dataset* ExtensionsTest::dataset_ = nullptr;
data::LeaveOneOutSplit* ExtensionsTest::split_ = nullptr;

double NdcgAt50(const models::Recommender& model,
                const data::LeaveOneOutSplit& split) {
  eval::EvalOptions opts;
  opts.cutoffs = {50};
  auto r = eval::Evaluate(model, split, opts);
  SCCF_CHECK(r.ok());
  return r->ndcg[0];
}

// ------------------------------------------------------- serialization

TEST(SerializeTest, RoundTripPreservesValues) {
  Rng rng(3);
  nn::Parameter a("model.a", Tensor::TruncatedNormal({4, 6}, 0.5f, rng));
  nn::Parameter b("model.b", Tensor::TruncatedNormal({1, 3}, 0.5f, rng));
  const std::string path = testing::TempDir() + "/ckpt_roundtrip.bin";
  ASSERT_TRUE(nn::SaveParameters(path, {&a, &b}).ok());

  nn::Parameter a2("model.a", Tensor::Zeros({4, 6}));
  nn::Parameter b2("model.b", Tensor::Zeros({1, 3}));
  ASSERT_TRUE(nn::LoadParameters(path, {&a2, &b2}).ok());
  EXPECT_TRUE(a2.value.AllClose(a.value, 0.0f));
  EXPECT_TRUE(b2.value.AllClose(b.value, 0.0f));
}

TEST(SerializeTest, LoadRejectsShapeMismatch) {
  Rng rng(5);
  nn::Parameter a("x", Tensor::TruncatedNormal({2, 2}, 0.5f, rng));
  const std::string path = testing::TempDir() + "/ckpt_shape.bin";
  ASSERT_TRUE(nn::SaveParameters(path, {&a}).ok());
  nn::Parameter wrong("x", Tensor::Zeros({3, 2}));
  EXPECT_EQ(nn::LoadParameters(path, {&wrong}).code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializeTest, LoadRejectsUnknownName) {
  Rng rng(7);
  nn::Parameter a("x", Tensor::TruncatedNormal({2, 2}, 0.5f, rng));
  const std::string path = testing::TempDir() + "/ckpt_name.bin";
  ASSERT_TRUE(nn::SaveParameters(path, {&a}).ok());
  nn::Parameter other("y", Tensor::Zeros({2, 2}));
  EXPECT_FALSE(nn::LoadParameters(path, {&other}).ok());
}

TEST(SerializeTest, LoadRejectsGarbageFile) {
  const std::string path = testing::TempDir() + "/ckpt_garbage.bin";
  {
    std::ofstream f(path);
    f << "definitely not a checkpoint";
  }
  nn::Parameter p("x", Tensor::Zeros({1, 1}));
  EXPECT_EQ(nn::LoadParameters(path, {&p}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(nn::LoadParameters("/no/such/file", {&p}).code(),
            StatusCode::kIoError);
}

TEST_F(ExtensionsTest, FismCheckpointRestoresScores) {
  models::Fism::Options opts;
  opts.dim = 8;
  opts.epochs = 3;
  models::Fism original(opts);
  ASSERT_TRUE(original.Fit(*split_).ok());
  const std::string path = testing::TempDir() + "/fism_ckpt.bin";
  ASSERT_TRUE(nn::SaveParameters(path, original.Parameters()).ok());

  models::Fism restored(opts);
  // Initialise the parameter storage with an untrained pass, then load.
  models::Fism::Options init = opts;
  init.epochs = 0;
  restored = models::Fism(init);
  ASSERT_TRUE(restored.Fit(*split_).ok());
  ASSERT_TRUE(nn::LoadParameters(path, restored.Parameters()).ok());

  std::vector<float> s1, s2;
  original.ScoreAll(2, split_->TrainSequence(2), &s1);
  restored.ScoreAll(2, split_->TrainSequence(2), &s2);
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_NEAR(s1[i], s2[i], 1e-6);
  }
}

// ------------------------------------------------------------ new models

TEST_F(ExtensionsTest, YouTubeDnnTrainsAndBeatsPop) {
  models::PopRecommender pop;
  ASSERT_TRUE(pop.Fit(*split_).ok());
  models::YouTubeDnn::Options opts;
  opts.dim = 16;
  opts.hidden = {32};
  opts.epochs = 16;
  opts.learning_rate = 0.005f;  // the tower needs a hotter LR at toy scale
  models::YouTubeDnn dnn(opts);
  ASSERT_TRUE(dnn.Fit(*split_).ok());
  EXPECT_LT(dnn.last_epoch_loss(), 0.6f);
  EXPECT_GT(NdcgAt50(dnn, *split_), NdcgAt50(pop, *split_));
}

TEST_F(ExtensionsTest, YouTubeDnnInferenceMatchesScoreAll) {
  models::YouTubeDnn::Options opts;
  opts.dim = 8;
  opts.epochs = 2;
  models::YouTubeDnn dnn(opts);
  ASSERT_TRUE(dnn.Fit(*split_).ok());
  const auto history = split_->TrainSequence(1);
  std::vector<float> mu(8);
  dnn.InferUserEmbedding(history, mu.data());
  std::vector<float> scores;
  dnn.ScoreAll(1, history, &scores);
  for (int i : {0, 9, 42}) {
    EXPECT_NEAR(scores[i],
                tensor_ops::Dot(mu.data(), dnn.ItemEmbedding(i), 8), 1e-4);
  }
}

TEST_F(ExtensionsTest, YouTubeDnnWorksAsSccfBase) {
  models::YouTubeDnn::Options opts;
  opts.dim = 16;
  opts.epochs = 6;
  models::YouTubeDnn dnn(opts);
  ASSERT_TRUE(dnn.Fit(*split_).ok());
  core::UserBasedComponent::Options uu_opts;
  uu_opts.beta = 20;
  core::UserBasedComponent uu(dnn, uu_opts);
  ASSERT_TRUE(uu.Fit(*split_).ok());
  std::vector<float> scores;
  uu.ScoreAll(0, split_->TrainSequence(0), &scores);
  size_t positive = 0;
  for (float s : scores) positive += s > 0.0f;
  EXPECT_GT(positive, 0u);
}

TEST_F(ExtensionsTest, Gru4RecTrainsAndBeatsPop) {
  models::PopRecommender pop;
  ASSERT_TRUE(pop.Fit(*split_).ok());
  models::Gru4Rec::Options opts;
  opts.dim = 16;
  opts.max_len = 20;
  opts.epochs = 14;
  models::Gru4Rec gru(opts);
  ASSERT_TRUE(gru.Fit(*split_).ok());
  EXPECT_LT(gru.last_epoch_loss(), 0.65f);
  EXPECT_GT(NdcgAt50(gru, *split_), NdcgAt50(pop, *split_));
}

TEST_F(ExtensionsTest, Gru4RecIsOrderSensitive) {
  models::Gru4Rec::Options opts;
  opts.dim = 8;
  opts.max_len = 10;
  opts.epochs = 2;
  models::Gru4Rec gru(opts);
  ASSERT_TRUE(gru.Fit(*split_).ok());
  std::vector<float> a(8), b(8);
  const std::vector<int> fwd = {1, 2, 3, 4};
  const std::vector<int> rev = {4, 3, 2, 1};
  gru.InferUserEmbedding(fwd, a.data());
  gru.InferUserEmbedding(rev, b.data());
  float diff = 0.0f;
  for (size_t i = 0; i < 8; ++i) diff += std::fabs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-5f);
}

TEST_F(ExtensionsTest, Gru4RecTruncatesToMaxLen) {
  models::Gru4Rec::Options opts;
  opts.dim = 8;
  opts.max_len = 4;
  opts.epochs = 1;
  models::Gru4Rec gru(opts);
  ASSERT_TRUE(gru.Fit(*split_).ok());
  std::vector<int> long_h = {9, 8, 7, 1, 2, 3, 4};
  std::vector<int> suffix = {1, 2, 3, 4};
  std::vector<float> a(8), b(8);
  gru.InferUserEmbedding(long_h, a.data());
  gru.InferUserEmbedding(suffix, b.data());
  for (size_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

// ------------------------------------------------------ streaming eval

TEST_F(ExtensionsTest, StreamingEvalRunsAndLiveIsCompetitive) {
  models::Fism::Options fopts;
  fopts.dim = 16;
  fopts.epochs = 6;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(*split_).ok());

  online::StreamingEvalOptions opts;
  opts.tail_events = 3;
  opts.cutoffs = {50};
  auto result = online::EvaluateStreamingUserBased(fism, *dataset_, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->num_predictions, 0u);
  // The live regime must not be materially worse than the frozen one; in
  // drifting regimes it wins (asserted loosely here on a small corpus).
  EXPECT_GE(result->LiveNdcgAt(50), result->FrozenNdcgAt(50) * 0.9);
  // The transductive serving mode (stale query embedding) must lose to
  // fresh-query inference — the paper's real-time argument.
  EXPECT_LT(result->StaleQueryNdcgAt(50), result->FrozenNdcgAt(50));
}

TEST_F(ExtensionsTest, StreamingEvalValidatesInputs) {
  models::Fism unfitted;
  EXPECT_EQ(
      online::EvaluateStreamingUserBased(unfitted, *dataset_, {}).status().code(),
      StatusCode::kFailedPrecondition);

  models::Fism::Options fopts;
  fopts.dim = 8;
  fopts.epochs = 1;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(*split_).ok());
  online::StreamingEvalOptions bad;
  bad.tail_events = 0;
  EXPECT_EQ(online::EvaluateStreamingUserBased(fism, *dataset_, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------- batched-reveal equivalence pins

// Reference implementation of the pre-batching event-at-a-time streaming
// eval, kept verbatim (through public APIs only) so reveal_window == 1 of
// the windowed production loop stays pinned bit-identical to it forever.
// If the production loop drifts, this copy does not.
StatusOr<online::StreamingEvalResult> LegacyStreamingEval(
    const models::InductiveUiModel& model, const data::Dataset& dataset,
    const online::StreamingEvalOptions& options) {
  using online::Engine;
  const size_t n = dataset.num_users();
  const size_t d = model.embedding_dim();
  const size_t m = dataset.num_items();

  auto prefix_len = [&](size_t u) -> size_t {
    const size_t len = dataset.sequence(u).size();
    return len >= 2 * options.tail_events ? len - options.tail_events : len;
  };
  auto infer_tail = [&](std::span<const int> history, float* out) {
    const size_t take = options.infer_window == 0
                            ? history.size()
                            : std::min(history.size(), options.infer_window);
    model.InferUserEmbedding(history.subspan(history.size() - take, take),
                             out);
  };
  // A neighbor's Eq. 12 votes: the distinct items of its history's last
  // vote_window items.
  auto votes_of = [&](std::span<const int> h) {
    const size_t vt = options.vote_window == 0
                          ? h.size()
                          : std::min(h.size(), options.vote_window);
    std::vector<int> votes(h.end() - vt, h.end());
    std::sort(votes.begin(), votes.end());
    votes.erase(std::unique(votes.begin(), votes.end()), votes.end());
    return votes;
  };
  // `votes_for(id)` returns a neighbor's votes.
  auto rank_by_votes = [&](const std::vector<index::Neighbor>& neighbors,
                           const auto& votes_for,
                           std::span<const int> history, int target) {
    std::vector<float> scores(m, 0.0f);
    for (const auto& nb : neighbors) {
      for (int item : votes_for(nb.id)) scores[item] += nb.score;
    }
    for (int item : history) scores[item] = 0.0f;
    const float t = scores[target];
    size_t better = 0;
    for (float s : scores) better += s > t;
    return better + 1;
  };

  Engine::Options live_opts;
  live_opts.beta = options.beta;
  live_opts.infer_window = options.infer_window;
  live_opts.vote_window = options.vote_window;
  live_opts.num_shards = 1;
  live_opts.index_kind = options.index_kind;
  live_opts.compaction_threshold = options.compaction_threshold;
  Engine engine(model, live_opts);
  {
    std::vector<Engine::UserState> states(n);
    for (size_t u = 0; u < n; ++u) {
      states[u].user = static_cast<int>(u);
      const auto& seq = dataset.sequence(u);
      states[u].history.assign(seq.begin(), seq.begin() + prefix_len(u));
    }
    SCCF_RETURN_NOT_OK(engine.Bootstrap(states));
  }

  std::vector<std::vector<int>> frozen_votes(n);
  std::vector<float> bootstrap_emb(n * d, 0.0f);
  std::vector<int> populated;
  for (size_t u = 0; u < n; ++u) {
    const auto& seq = dataset.sequence(u);
    const size_t p = prefix_len(u);
    if (p == 0) continue;
    std::span<const int> prefix(seq.data(), p);
    infer_tail(prefix, bootstrap_emb.data() + u * d);
    populated.push_back(static_cast<int>(u));
    frozen_votes[u] = votes_of(prefix);
  }
  auto frozen_votes_for = [&](int v) -> const std::vector<int>& {
    return frozen_votes[v];
  };
  auto live_votes_for = [&](int v) {
    auto h = engine.History({v});
    return h.ok() ? votes_of(h->items) : std::vector<int>{};
  };
  std::unique_ptr<index::VectorIndex> frozen;
  if (options.index_kind == core::IndexKind::kIvfFlat) {
    index::IvfFlatIndex::Options ivf_opts;
    ivf_opts.nlist =
        std::min(ivf_opts.nlist, std::max<size_t>(1, populated.size()));
    auto ivf = std::make_unique<index::IvfFlatIndex>(
        d, index::Metric::kCosine, ivf_opts);
    std::vector<float> train_set;
    train_set.reserve(populated.size() * d);
    for (int u : populated) {
      train_set.insert(train_set.end(), bootstrap_emb.begin() + u * d,
                       bootstrap_emb.begin() + (u + 1) * d);
    }
    if (populated.empty()) {
      train_set.assign(d, 0.0f);
      SCCF_RETURN_NOT_OK(ivf->Train(train_set, 1));
    } else {
      SCCF_RETURN_NOT_OK(ivf->Train(train_set, populated.size()));
    }
    frozen = std::move(ivf);
  } else if (options.index_kind == core::IndexKind::kHnsw) {
    frozen = std::make_unique<index::HnswIndex>(
        d, index::Metric::kCosine, index::HnswIndex::Options{});
  } else {
    frozen = std::make_unique<index::BruteForceIndex>(
        d, index::Metric::kCosine);
  }
  for (int u : populated) {
    SCCF_RETURN_NOT_OK(frozen->Add(u, bootstrap_emb.data() + u * d));
  }

  online::StreamingEvalResult result;
  result.cutoffs = options.cutoffs;
  result.live_hr.assign(options.cutoffs.size(), 0.0);
  result.live_ndcg.assign(options.cutoffs.size(), 0.0);
  result.frozen_hr.assign(options.cutoffs.size(), 0.0);
  result.frozen_ndcg.assign(options.cutoffs.size(), 0.0);
  result.stale_query_hr.assign(options.cutoffs.size(), 0.0);
  result.stale_query_ndcg.assign(options.cutoffs.size(), 0.0);

  struct TailEvent {
    int64_t ts;
    size_t user;
    size_t pos;
  };
  std::vector<TailEvent> events;
  for (size_t u = 0; u < n; ++u) {
    const auto& seq = dataset.sequence(u);
    if (seq.size() < 2 * options.tail_events) continue;
    for (size_t t = prefix_len(u); t < seq.size(); ++t) {
      events.push_back({dataset.timestamps(u)[t], u, t});
    }
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const TailEvent& a, const TailEvent& b) { return a.ts < b.ts; });

  std::vector<float> emb(d);
  for (const TailEvent& e : events) {
    const auto& seq = dataset.sequence(e.user);
    const int target = seq[e.pos];
    const std::span<const int> history(seq.data(), e.pos);

    auto live_resp =
        engine.Neighbors({static_cast<int>(e.user), std::nullopt});
    SCCF_RETURN_NOT_OK(live_resp.status());
    infer_tail(history, emb.data());
    auto frozen_nbrs =
        frozen->Search(emb.data(), options.beta, static_cast<int>(e.user));
    SCCF_RETURN_NOT_OK(frozen_nbrs.status());
    auto stale_nbrs =
        frozen->Search(bootstrap_emb.data() + e.user * d, options.beta,
                       static_cast<int>(e.user));
    SCCF_RETURN_NOT_OK(stale_nbrs.status());

    const size_t live_rank =
        rank_by_votes(live_resp->neighbors, live_votes_for, history, target);
    const size_t frozen_rank =
        rank_by_votes(*frozen_nbrs, frozen_votes_for, history, target);
    const size_t stale_rank =
        rank_by_votes(*stale_nbrs, frozen_votes_for, history, target);
    for (size_t c = 0; c < options.cutoffs.size(); ++c) {
      const size_t k = options.cutoffs[c];
      result.live_hr[c] += live_rank <= k ? 1.0 : 0.0;
      result.frozen_hr[c] += frozen_rank <= k ? 1.0 : 0.0;
      result.stale_query_hr[c] += stale_rank <= k ? 1.0 : 0.0;
      result.live_ndcg[c] +=
          live_rank <= k ? 1.0 / std::log2(live_rank + 1.0) : 0.0;
      result.frozen_ndcg[c] +=
          frozen_rank <= k ? 1.0 / std::log2(frozen_rank + 1.0) : 0.0;
      result.stale_query_ndcg[c] +=
          stale_rank <= k ? 1.0 / std::log2(stale_rank + 1.0) : 0.0;
    }
    ++result.num_predictions;

    Engine::IngestRequest reveal;
    reveal.events.push_back({static_cast<int>(e.user), target, e.ts});
    reveal.identify = false;
    SCCF_RETURN_NOT_OK(engine.Ingest(reveal).status());
  }

  if (result.num_predictions > 0) {
    for (size_t c = 0; c < options.cutoffs.size(); ++c) {
      result.live_hr[c] /= result.num_predictions;
      result.live_ndcg[c] /= result.num_predictions;
      result.frozen_hr[c] /= result.num_predictions;
      result.frozen_ndcg[c] /= result.num_predictions;
      result.stale_query_hr[c] /= result.num_predictions;
      result.stale_query_ndcg[c] /= result.num_predictions;
    }
  }
  return result;
}

void ExpectSameMetrics(const online::StreamingEvalResult& a,
                       const online::StreamingEvalResult& b) {
  EXPECT_EQ(a.num_predictions, b.num_predictions);
  EXPECT_EQ(a.cutoffs, b.cutoffs);
  EXPECT_EQ(a.live_hr, b.live_hr);
  EXPECT_EQ(a.live_ndcg, b.live_ndcg);
  EXPECT_EQ(a.frozen_hr, b.frozen_hr);
  EXPECT_EQ(a.frozen_ndcg, b.frozen_ndcg);
  EXPECT_EQ(a.stale_query_hr, b.stale_query_hr);
  EXPECT_EQ(a.stale_query_ndcg, b.stale_query_ndcg);
}

TEST_F(ExtensionsTest, RevealWindowOneMatchesLegacyBitIdentically) {
  models::Fism::Options fopts;
  fopts.dim = 16;
  fopts.epochs = 4;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(*split_).ok());

  for (core::IndexKind kind :
       {core::IndexKind::kBruteForce, core::IndexKind::kIvfFlat,
        core::IndexKind::kHnsw}) {
    SCOPED_TRACE(static_cast<int>(kind));
    online::StreamingEvalOptions opts;
    opts.tail_events = 3;
    opts.cutoffs = {20, 50};
    opts.index_kind = kind;
    opts.reveal_window = 1;

    auto legacy = LegacyStreamingEval(fism, *dataset_, opts);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    auto windowed = online::EvaluateStreamingUserBased(fism, *dataset_, opts);
    ASSERT_TRUE(windowed.ok()) << windowed.status().ToString();
    ASSERT_GT(windowed->num_predictions, 0u);
    ExpectSameMetrics(*legacy, *windowed);
  }
}

TEST_F(ExtensionsTest, StreamingEvalRejectsZeroRevealWindow) {
  models::Fism::Options fopts;
  fopts.dim = 8;
  fopts.epochs = 1;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(*split_).ok());
  online::StreamingEvalOptions bad;
  bad.reveal_window = 0;
  EXPECT_EQ(
      online::EvaluateStreamingUserBased(fism, *dataset_, bad).status().code(),
      StatusCode::kInvalidArgument);
}

// A batched reveal window predicts every tail event of every user long
// enough to have a tail, including the last, partial window, on the
// bursty and power_law regimes (sessions and heavy tails put several of
// one user's events in one window).
TEST(StreamingEvalScenarioTest, WindowedRevealPredictsEveryTailEvent) {
  for (const char* generator : {"bursty", "power_law"}) {
    SCOPED_TRACE(generator);
    scenario::ScenarioSpec spec;
    spec.generator = generator;
    spec.num_users = 120;
    spec.num_items = 160;
    spec.events_per_user = 8;
    spec.seed = 97;
    auto source = scenario::MakeScenario(spec);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    auto ds = (*source)->Load();
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    data::LeaveOneOutSplit split(*ds);
    models::Fism::Options fopts;
    fopts.dim = 8;
    fopts.epochs = 0;
    models::Fism fism(fopts);
    ASSERT_TRUE(fism.Fit(split).ok());

    online::StreamingEvalOptions opts;
    opts.tail_events = 2;
    opts.cutoffs = {20};
    opts.reveal_window = 32;
    auto result = online::EvaluateStreamingUserBased(fism, *ds, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    size_t tail_events = 0;
    for (size_t u = 0; u < ds->num_users(); ++u) {
      if (ds->sequence(u).size() >= 2 * opts.tail_events) {
        tail_events += opts.tail_events;
      }
    }
    EXPECT_GT(tail_events % opts.reveal_window, 0u);
    EXPECT_EQ(result->num_predictions, tail_events);
  }
}

// ------------------------------------------- profile-aware neighborhood

TEST(ProfileNeighborhoodTest, AgreementFormula) {
  using PN = core::ProfileAwareNeighborhood;
  EXPECT_FLOAT_EQ(PN::ProfileAgreement({1, 2, 3}, {1, 2, 3}), 1.0f);
  EXPECT_FLOAT_EQ(PN::ProfileAgreement({1, 2, 3}, {1, 0, 3}), 2.0f / 3);
  EXPECT_FLOAT_EQ(PN::ProfileAgreement({1}, {1, 2}), 0.0f);  // arity
  EXPECT_FLOAT_EQ(PN::ProfileAgreement({}, {}), 0.0f);
}

TEST(ProfileNeighborhoodTest, ProfileBreaksEmbeddingTies) {
  // Three users with identical embeddings; profiles decide the order.
  index::BruteForceIndex idx(2, index::Metric::kCosine);
  const float v[2] = {1.0f, 0.0f};
  for (int u = 0; u < 3; ++u) ASSERT_TRUE(idx.Add(u, v).ok());
  std::vector<std::vector<int>> profiles = {{1, 1}, {1, 2}, {9, 9}};
  core::ProfileAwareNeighborhood pn(&idx, profiles,
                                    {.profile_weight = 0.4f});
  auto nbrs = pn.Neighbors(v, {1, 1}, 2, /*exclude_user=*/-1);
  ASSERT_TRUE(nbrs.ok());
  ASSERT_EQ(nbrs->size(), 2u);
  EXPECT_EQ((*nbrs)[0].id, 0);  // full profile match
  EXPECT_EQ((*nbrs)[1].id, 1);  // half match beats no match
}

TEST(ProfileNeighborhoodTest, ZeroWeightMatchesBaseIndex) {
  Rng rng(11);
  index::BruteForceIndex idx(4, index::Metric::kCosine);
  std::vector<float> corpus(20 * 4);
  for (auto& x : corpus) x = rng.Normal();
  for (int u = 0; u < 20; ++u) {
    ASSERT_TRUE(idx.Add(u, corpus.data() + u * 4).ok());
  }
  std::vector<std::vector<int>> profiles(20, std::vector<int>{0});
  core::ProfileAwareNeighborhood pn(&idx, profiles,
                                    {.profile_weight = 0.0f});
  float q[4] = {1, 0, 0, 0};
  auto base = idx.Search(q, 5);
  auto blended = pn.Neighbors(q, {0}, 5, -1);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(blended.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*base)[i].id, (*blended)[i].id);
  }
}

// --------------------------------------------------- ranking-stage SCCF

TEST_F(ExtensionsTest, RankStageRerankOrdersAndPreservesSet) {
  models::Fism::Options fopts;
  fopts.dim = 16;
  fopts.epochs = 6;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(*split_).ok());
  core::UserBasedComponent uu(fism, {});
  ASSERT_TRUE(uu.Fit(*split_).ok());

  core::SccfRankStage stage(fism, uu);
  std::vector<int> candidates = {3, 8, 15, 42, 77, 101};
  auto ranked = stage.Rerank(0, split_->TrainSequence(0), candidates);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), candidates.size());
  std::vector<int> ids;
  for (const auto& r : *ranked) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  std::sort(candidates.begin(), candidates.end());
  EXPECT_EQ(ids, candidates);
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_GE((*ranked)[i - 1].score, (*ranked)[i].score);
  }
}

TEST_F(ExtensionsTest, RankStageRejectsEmptyCandidates) {
  models::Fism::Options fopts;
  fopts.dim = 8;
  fopts.epochs = 1;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(*split_).ok());
  core::UserBasedComponent uu(fism, {});
  ASSERT_TRUE(uu.Fit(*split_).ok());
  core::SccfRankStage stage(fism, uu);
  EXPECT_EQ(stage.Rerank(0, split_->TrainSequence(0), {}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------- extended metrics

TEST(ExtendedMetricsTest, MrrFormula) {
  EXPECT_DOUBLE_EQ(eval::Mrr(1, 10), 1.0);
  EXPECT_DOUBLE_EQ(eval::Mrr(4, 10), 0.25);
  EXPECT_EQ(eval::Mrr(11, 10), 0.0);
  EXPECT_EQ(eval::Mrr(0, 10), 0.0);
}

TEST(ExtendedMetricsTest, ListQualityOnKnownLists) {
  // Catalog of 4 items; popularity 10, 5, 1, 0.
  std::vector<size_t> counts = {10, 5, 1, 0};
  std::vector<std::vector<int>> lists = {{0, 1}, {0, 2}};
  auto q = eval::AnalyzeLists(lists, counts, 4);
  EXPECT_DOUBLE_EQ(q.catalog_coverage, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(q.mean_popularity, (7.5 + 5.5) / 2.0);
  // Exposure: item0 x2, item1 x1, item2 x1 -> entropy of {1/2,1/4,1/4}.
  const double expected_entropy =
      -(0.5 * std::log(0.5) + 0.25 * std::log(0.25) * 2);
  EXPECT_NEAR(q.exposure_entropy, expected_entropy, 1e-9);
}

TEST(ExtendedMetricsTest, ListQualityEdgeCases) {
  auto empty = eval::AnalyzeLists({}, {}, 0);
  EXPECT_EQ(empty.catalog_coverage, 0.0);
  std::vector<size_t> counts = {1, 1};
  auto only_empty = eval::AnalyzeLists({{}, {}}, counts, 2);
  EXPECT_EQ(only_empty.catalog_coverage, 0.0);
}

TEST_F(ExtensionsTest, UuListsReachDeeperIntoTheTail) {
  // The paper's "local information" argument, quantified: the UU stream's
  // recommendations average lower popularity than the UI stream's.
  models::Fism::Options fopts;
  fopts.dim = 16;
  fopts.epochs = 6;
  models::Fism fism(fopts);
  ASSERT_TRUE(fism.Fit(*split_).ok());
  core::UserBasedComponent uu(fism, {});
  ASSERT_TRUE(uu.Fit(*split_).ok());

  std::vector<std::vector<int>> ui_lists, uu_lists;
  std::vector<float> scores;
  for (size_t u = 0; u < 60; ++u) {
    const auto history = split_->TrainSequence(u);
    fism.ScoreAll(u, history, &scores);
    for (int i : history) scores[i] = -1e30f;
    std::vector<int> ui;
    for (const auto& c : core::TopNFromScores(scores, 20)) {
      ui.push_back(c.id);
    }
    ui_lists.push_back(std::move(ui));
    uu.ScoreAll(u, history, &scores);
    std::vector<int> uu_ids;
    for (const auto& c : core::TopNFromScores(scores, 20, 0.0f)) {
      uu_ids.push_back(c.id);
    }
    uu_lists.push_back(std::move(uu_ids));
  }
  auto ui_q = eval::AnalyzeLists(ui_lists, dataset_->item_counts(),
                                 dataset_->num_items());
  auto uu_q = eval::AnalyzeLists(uu_lists, dataset_->item_counts(),
                                 dataset_->num_items());
  EXPECT_GT(uu_q.catalog_coverage, 0.0);
  EXPECT_GT(ui_q.catalog_coverage, 0.0);
}

}  // namespace
}  // namespace sccf
