#include "core/rank_stage.h"

#include <algorithm>
#include <cmath>

#include "core/candidates.h"
#include "simd/kernels.h"
#include "util/logging.h"

namespace sccf::core {

SccfRankStage::SccfRankStage(const models::InductiveUiModel& base,
                             const UserBasedComponent& user_based,
                             Options options)
    : base_(&base), user_based_(&user_based), options_(options) {}

StatusOr<std::vector<index::Neighbor>> SccfRankStage::Rerank(
    size_t user, std::span<const int> history,
    const std::vector<int>& candidates) const {
  if (candidates.empty()) {
    return Status::InvalidArgument("candidate set is empty");
  }
  const size_t d = base_->embedding_dim();
  std::vector<float> user_emb(d, 0.0f);
  base_->InferUserEmbedding(history, user_emb.data());

  // UI scores restricted to the candidates (arbitrary item subset, so no
  // batched scan — per-candidate dispatched dots).
  std::vector<float> ui(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ui[i] = simd::Dot(user_emb.data(), base_->ItemEmbedding(candidates[i]),
                      d);
  }
  // UU vote mass over the full catalog, then restricted.
  std::vector<float> uu_all;
  user_based_->ScoreAll(user, history, &uu_all);
  std::vector<float> uu(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    uu[i] = uu_all[candidates[i]];
  }

  auto znorm = [](std::vector<float>& v) {
    double mean = 0.0;
    for (float x : v) mean += x;
    mean /= v.size();
    double var = 0.0;
    for (float x : v) var += (x - mean) * (x - mean);
    var /= v.size();
    const double stddev = var > 1e-12 ? std::sqrt(var) : 1.0;
    for (float& x : v) x = static_cast<float>((x - mean) / stddev);
  };
  znorm(ui);
  znorm(uu);

  std::vector<index::Neighbor> out(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    out[i] = {candidates[i], ui[i] + options_.uu_weight * uu[i]};
  }
  std::sort(out.begin(), out.end(), index::NeighborBefore);
  return out;
}

}  // namespace sccf::core
