#ifndef SCCF_CORE_USER_BASED_H_
#define SCCF_CORE_USER_BASED_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/brute_force_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_flat_index.h"
#include "index/vector_index.h"
#include "models/recommender.h"
#include "util/status.h"

namespace sccf::core {

/// Which ANN backend identifies the user neighborhood.
enum class IndexKind { kBruteForce, kIvfFlat, kHnsw };

/// The one backend factory: a `kind` index holding ids[i] -> row i of
/// `rows` (ids.size() x dim floats, row-major). IVF first trains its
/// coarse quantizer on those rows with nlist clamped to their count; with
/// no rows it trains one centroid at the origin, so later Adds still land.
StatusOr<std::unique_ptr<index::VectorIndex>> BuildIndex(
    IndexKind kind, index::Metric metric, quant::Storage storage,
    const index::IvfFlatIndex::Options& ivf,
    const index::HnswIndex::Options& hnsw, size_t dim,
    std::span<const int> ids, const std::vector<float>& rows);

/// Infers a user embedding (into `out`, embedding_dim floats) from the
/// last `window` items of `history` (all of them when `window` is 0).
void InferRecent(const models::InductiveUiModel& model,
                 std::span<const int> history, size_t window, float* out);

/// Eq. 12 accumulator: scores()[i] sums the weight of every added
/// neighbor that holds item i among the last `window` items of its
/// history (all of them when `window` is 0). An item repeated inside that
/// window counts once, and each item's sum takes its terms in Add order.
class VoteTally {
 public:
  VoteTally(size_t num_items, size_t window);

  /// Adds one neighbor's votes. Pre: every item of `history` is below
  /// num_items.
  void Add(std::span<const int> history, float weight);

  std::vector<float>& scores() { return scores_; }

 private:
  size_t window_;
  uint32_t voter_ = 0;  ///< Add calls so far
  /// Per item, the Add call that last counted it (the dedup stamp).
  std::vector<uint32_t> last_voter_;
  std::vector<float> scores_;
};

/// The SCCF user-based component (paper Sec. III-C).
///
/// It owns no trainable parameters: user representations are inferred by
/// the inductive UI model from each user's recent items (the paper infers
/// from the latest 15), stored in a vector index, and a user's
/// neighborhood N_u is the top-beta most cosine-similar users (Eq. 11).
/// Candidates are the neighbors' recent items, weighted by similarity
/// (Eq. 12), excluding the querying user's own history.
class UserBasedComponent : public models::Recommender {
 public:
  struct Options {
    /// Neighborhood size beta (Sec. III-C, Table IV sweeps {50,100,200}).
    size_t beta = 100;
    /// Recent items used to infer the query user embedding (15 in paper).
    size_t infer_window = 15;
    /// Recent items each neighbor contributes as votes (15 in paper).
    size_t vote_window = 15;
    IndexKind index_kind = IndexKind::kBruteForce;
    index::Metric metric = index::Metric::kCosine;
    /// Embedding storage inside the index: fp32 rows or SQ8 codes
    /// (int8 + per-row scale/offset, scored via the int8 kernels).
    quant::Storage storage = quant::Storage::kFp32;
    /// Build the user snapshot from prefix+validation histories (test-time
    /// protocol) instead of training prefixes.
    bool include_validation = false;
    /// nlist is clamped to the user count (see BuildIndex).
    index::IvfFlatIndex::Options ivf;
    index::HnswIndex::Options hnsw;
  };

  /// `base` must outlive this component and be fitted before Fit is
  /// called here.
  UserBasedComponent(const models::InductiveUiModel& base, Options options);

  std::string name() const override { return base_->name() + "-UU"; }

  /// Infers every user's embedding, builds the index, and keeps each
  /// user's last vote_window items for the Eq. 12 votes.
  Status Fit(const data::LeaveOneOutSplit& split) override;

  /// Eq. 11 neighborhood of an arbitrary query embedding.
  std::vector<index::Neighbor> Neighbors(const float* query_embedding,
                                         size_t beta,
                                         int exclude_user) const;

  /// Eq. 12 scores: fresh query embedding from `history`'s tail, neighbor
  /// lookup, similarity-weighted votes over neighbors' recent items.
  void ScoreAll(size_t u, std::span<const int> history,
                std::vector<float>* scores) const override;

  const index::VectorIndex& index() const { return *index_; }
  const models::InductiveUiModel& base() const { return *base_; }
  const Options& options() const { return options_; }
  size_t num_items() const { return num_items_; }

 private:
  const models::InductiveUiModel* base_;
  Options options_;
  size_t num_items_ = 0;
  std::unique_ptr<index::VectorIndex> index_;
  /// Per fitted user, the last vote_window items of its history.
  std::vector<std::vector<int>> recent_items_;
};

}  // namespace sccf::core

#endif  // SCCF_CORE_USER_BASED_H_
