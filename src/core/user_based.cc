#include "core/user_based.h"

#include <algorithm>

#include "simd/kernels.h"
#include "util/logging.h"

namespace sccf::core {

UserBasedComponent::UserBasedComponent(const models::InductiveUiModel& base,
                                       Options options)
    : base_(&base), options_(options) {
  SCCF_CHECK_GT(options_.beta, 0u);
}

std::unique_ptr<index::VectorIndex> UserBasedComponent::MakeIndex(
    size_t /*n*/) const {
  const size_t d = base_->embedding_dim();
  switch (options_.index_kind) {
    case IndexKind::kBruteForce:
      return std::make_unique<index::BruteForceIndex>(
          d, options_.metric, options_.storage);
    case IndexKind::kIvfFlat:
      return std::make_unique<index::IvfFlatIndex>(d, options_.metric,
                                                   options_.ivf,
                                                   options_.storage);
    case IndexKind::kHnsw:
      return std::make_unique<index::HnswIndex>(d, options_.metric,
                                                options_.hnsw,
                                                options_.storage);
  }
  return nullptr;
}

void UserBasedComponent::InferWindowEmbedding(std::span<const int> history,
                                              float* out) const {
  const size_t take = options_.infer_window == 0
                          ? history.size()
                          : std::min(history.size(), options_.infer_window);
  base_->InferUserEmbedding(history.subspan(history.size() - take, take),
                            out);
}

Status UserBasedComponent::Fit(const data::LeaveOneOutSplit& split) {
  if (base_->num_items() == 0) {
    return Status::FailedPrecondition(
        "UI base model must be fitted before the user-based component");
  }
  const size_t n = split.num_users();
  const size_t d = base_->embedding_dim();
  num_items_ = split.dataset().num_items();
  index_ = MakeIndex(n);
  vote_items_.assign(n, {});

  // Infer all user embeddings (parallel-safe: base inference is const).
  std::vector<float> embeddings(n * d, 0.0f);
  for (size_t u = 0; u < n; ++u) {
    const std::span<const int> history =
        options_.include_validation ? split.TrainPlusValidSequence(u)
                                    : split.TrainSequence(u);
    if (history.empty()) continue;
    InferWindowEmbedding(history, embeddings.data() + u * d);

    const size_t vt = options_.vote_window == 0
                          ? history.size()
                          : std::min(history.size(), options_.vote_window);
    std::vector<int> votes(history.end() - vt, history.end());
    std::sort(votes.begin(), votes.end());
    votes.erase(std::unique(votes.begin(), votes.end()), votes.end());
    vote_items_[u] = std::move(votes);
  }

  // IVF needs a training pass over the corpus before inserts.
  if (options_.index_kind == IndexKind::kIvfFlat) {
    auto* ivf = static_cast<index::IvfFlatIndex*>(index_.get());
    SCCF_RETURN_NOT_OK(ivf->Train(embeddings, n));
  }
  for (size_t u = 0; u < n; ++u) {
    SCCF_RETURN_NOT_OK(
        index_->Add(static_cast<int>(u), embeddings.data() + u * d));
  }
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
  InferWindowEmbedding(history, query.data());
  const std::vector<index::Neighbor> neighborhood =
      Neighbors(query.data(), options_.beta, static_cast<int>(u));

  // Eq. 12: r^UU_ui = sum_{v in N_u} delta_vi * sim(u, v). Each
  // neighbor's vote list is sorted+unique (built in Fit/UpdateUser), which
  // is exactly the precondition simd::ScatterAddConstant needs.
  for (const index::Neighbor& nb : neighborhood) {
    const std::vector<int>& votes = vote_items_[nb.id];
    simd::ScatterAddConstant(scores->data(), votes.data(), votes.size(),
                             nb.score);
  }
  // Never recommend the user's own history (Sec. III-C).
  for (int item : history) (*scores)[item] = 0.0f;
}

Status UserBasedComponent::UpdateUser(int u, std::span<const int> history) {
  if (index_ == nullptr) {
    return Status::FailedPrecondition("Fit must be called first");
  }
  if (u < 0) return Status::InvalidArgument("user id must be >= 0");
  const size_t d = base_->embedding_dim();
  std::vector<float> emb(d, 0.0f);
  InferWindowEmbedding(history, emb.data());
  SCCF_RETURN_NOT_OK(index_->Add(u, emb.data()));

  if (static_cast<size_t>(u) >= vote_items_.size()) {
    vote_items_.resize(u + 1);
  }
  const size_t vt = options_.vote_window == 0
                        ? history.size()
                        : std::min(history.size(), options_.vote_window);
  std::vector<int> votes(history.end() - vt, history.end());
  std::sort(votes.begin(), votes.end());
  votes.erase(std::unique(votes.begin(), votes.end()), votes.end());
  vote_items_[u] = std::move(votes);
  return Status::OK();
}

}  // namespace sccf::core
