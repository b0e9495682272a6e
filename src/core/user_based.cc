#include "core/user_based.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace sccf::core {

namespace {

/// The last `window` items of `history` (all of them when `window` is 0).
std::span<const int> RecentItems(std::span<const int> history,
                                 size_t window) {
  return window == 0 ? history
                     : history.last(std::min(history.size(), window));
}

}  // namespace

StatusOr<std::unique_ptr<index::VectorIndex>> BuildIndex(
    IndexKind kind, index::Metric metric, quant::Storage storage,
    const index::IvfFlatIndex::Options& ivf,
    const index::HnswIndex::Options& hnsw, size_t dim,
    std::span<const int> ids, const std::vector<float>& rows) {
  SCCF_CHECK_EQ(rows.size(), ids.size() * dim);
  std::unique_ptr<index::VectorIndex> index;
  switch (kind) {
    case IndexKind::kBruteForce:
      index = std::make_unique<index::BruteForceIndex>(dim, metric, storage);
      break;
    case IndexKind::kIvfFlat: {
      const size_t n = std::max<size_t>(1, ids.size());
      index::IvfFlatIndex::Options clamped = ivf;
      clamped.nlist = std::min(ivf.nlist, n);
      auto ivf_index = std::make_unique<index::IvfFlatIndex>(
          dim, metric, clamped, storage);
      // With no rows, one centroid at the origin.
      const std::vector<float> origin(ids.empty() ? dim : 0, 0.0f);
      SCCF_RETURN_NOT_OK(ivf_index->Train(ids.empty() ? origin : rows, n));
      index = std::move(ivf_index);
      break;
    }
    case IndexKind::kHnsw:
      index = std::make_unique<index::HnswIndex>(dim, metric, hnsw, storage);
      break;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    SCCF_RETURN_NOT_OK(index->Add(ids[i], rows.data() + i * dim));
  }
  return index;
}

void InferRecent(const models::InductiveUiModel& model,
                 std::span<const int> history, size_t window, float* out) {
  model.InferUserEmbedding(RecentItems(history, window), out);
}

VoteTally::VoteTally(size_t num_items, size_t window)
    : window_(window), last_voter_(num_items, 0), scores_(num_items, 0.0f) {}

void VoteTally::Add(std::span<const int> history, float weight) {
  ++voter_;
  for (int item : RecentItems(history, window_)) {
    if (last_voter_[item] == voter_) continue;
    last_voter_[item] = voter_;
    scores_[item] += weight;
  }
}

UserBasedComponent::UserBasedComponent(const models::InductiveUiModel& base,
                                       Options options)
    : base_(&base), options_(options) {
  SCCF_CHECK_GT(options_.beta, 0u);
}

Status UserBasedComponent::Fit(const data::LeaveOneOutSplit& split) {
  if (base_->num_items() == 0) {
    return Status::FailedPrecondition(
        "UI base model must be fitted before the user-based component");
  }
  const size_t n = split.num_users();
  const size_t d = base_->embedding_dim();
  num_items_ = split.dataset().num_items();
  recent_items_.assign(n, {});

  // Infer all user embeddings (parallel-safe: base inference is const).
  std::vector<float> embeddings(n * d, 0.0f);
  for (size_t u = 0; u < n; ++u) {
    const std::span<const int> history =
        options_.include_validation ? split.TrainPlusValidSequence(u)
                                    : split.TrainSequence(u);
    if (history.empty()) continue;
    InferRecent(*base_, history, options_.infer_window,
                embeddings.data() + u * d);
    const std::span<const int> recent =
        RecentItems(history, options_.vote_window);
    recent_items_[u].assign(recent.begin(), recent.end());
  }
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  SCCF_ASSIGN_OR_RETURN(
      index_, BuildIndex(options_.index_kind, options_.metric,
                         options_.storage, options_.ivf, options_.hnsw, d,
                         ids, embeddings));
  return Status::OK();
}

std::vector<index::Neighbor> UserBasedComponent::Neighbors(
    const float* query_embedding, size_t beta, int exclude_user) const {
  SCCF_CHECK(index_ != nullptr) << "Fit must be called first";
  auto result = index_->Search(query_embedding, beta, exclude_user);
  SCCF_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void UserBasedComponent::ScoreAll(size_t u, std::span<const int> history,
                                  std::vector<float>* scores) const {
  scores->assign(num_items_, 0.0f);
  if (history.empty()) return;

  std::vector<float> query(base_->embedding_dim(), 0.0f);
  InferRecent(*base_, history, options_.infer_window, query.data());
  const std::vector<index::Neighbor> neighborhood =
      Neighbors(query.data(), options_.beta, static_cast<int>(u));

  // Eq. 12: r^UU_ui = sum_{v in N_u} delta_vi * sim(u, v).
  VoteTally tally(num_items_, options_.vote_window);
  for (const index::Neighbor& nb : neighborhood) {
    tally.Add(recent_items_[nb.id], nb.score);
  }
  *scores = std::move(tally.scores());
  // Never recommend the user's own history (Sec. III-C).
  for (int item : history) (*scores)[item] = 0.0f;
}

}  // namespace sccf::core
